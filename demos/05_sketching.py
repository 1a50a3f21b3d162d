"""One-pass censored RLS against batch sketching at a matched budget.

Sketch-and-solve reduces a D x p least-squares problem to d rows,
either by uniform row sampling or through a randomized Hadamard
mixing stage that flattens leverage scores first.  Adaptive censoring
reduces to d rows too, but it picks rows by their innovation against
a running estimate instead of picking blindly.

On heavy-tailed designs a few rows carry most of the information;
uniform sampling misses them, mixing recovers them, and the censor
keeps them by construction.  On Gaussian designs every row looks the
same and the three reductions are nearly interchangeable.
"""

import numpy as np

from cendre import (
    RLS,
    StreamSpec,
    ThresholdPlan,
    generate,
    materialize,
    solve_reduced,
    srht_reduce,
    uniform_reduce,
)


def one_design(design, df, p, D, sigma, keep, reps, seed0):
    pi_star = 1.0 - keep
    d = int(round(keep * D))
    rse = {"ac-rls": [], "srht": [], "uniform": []}
    for r in range(reps):
        spec = StreamSpec(p=p, D=D, sigma=sigma, seed=seed0 + r,
                          design=design, df=df).pinned()
        theta_o = spec.resolved_theta()
        denom = float(np.sum(theta_o**2))

        est = RLS(p, sigma=sigma, plan=ThresholdPlan.ac_offline(p, pi_star))
        for y, x in generate(spec):
            est.step(y, x)
        rse["ac-rls"].append(float(np.sum((est.theta - theta_o) ** 2)) / denom)

        X, y = materialize(spec)
        for name, reduce_fn in (("srht", srht_reduce), ("uniform", uniform_reduce)):
            theta = solve_reduced(reduce_fn(X, y, d, seed=seed0 + r))
            rse[name].append(float(np.sum((theta - theta_o) ** 2)) / denom)
    return {k: float(np.mean(v)) for k, v in rse.items()}


def main():
    p, D, sigma, keep, reps = 50, 5000, 3.0, 0.3, 12
    print(f"p={p}, D={D}, sigma={sigma}, budget d/D = {keep:.0%}, {reps} runs")
    print(f"{'design':>12} {'ac-rls':>11} {'srht':>11} {'uniform':>11}")
    for label, design, df in (("student-t(3)", "student-t", 3.0),
                              ("gaussian", "gaussian", None)):
        out = one_design(design, df, p, D, sigma, keep, reps, seed0=4000)
        print(f"{label:>12} {out['ac-rls']:>11.3e} {out['srht']:>11.3e} "
              f"{out['uniform']:>11.3e}")
    print()
    print("rse = ||estimate - truth||^2 / ||truth||^2 at matched row budget.")


if __name__ == "__main__":
    main()
