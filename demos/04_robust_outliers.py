"""Censoring plus clipping under impulsive noise.

An adaptive censor keeps exactly the observations with large
innovations.  When a fraction of the stream is contaminated, those
are the outliers, so plain adaptive RLS ends up fitting the worst
data it sees.  The robust variant adds a second threshold tau_o:
innovations beyond it still move the estimate, but only by a clipped,
bounded step, and they never touch the step matrix.
"""

import numpy as np

from cendre import RLS, StreamSpec, ThresholdPlan, generate


def final_rse(est, spec, theta_o):
    for y, x in generate(spec):
        est.step(y, x)
    return float(np.sum((est.theta - theta_o) ** 2) / np.sum(theta_o**2))


def main():
    p, D, sigma = 30, 10000, 1.0
    contamination, boost = 0.05, 25.0
    reps = 15

    print(f"p={p}, D={D}, {contamination:.0%} outliers with variance {boost:.0f} sigma^2")
    print(f"{'target kept':>11} {'ac-rls rse':>12} {'rac-rls rse':>12} {'improvement':>12}")
    for keep in (0.1, 0.3, 0.5):
        pi_star = 1.0 - keep
        plain, robust = [], []
        for r in range(reps):
            spec = StreamSpec(
                p=p, D=D, sigma=sigma, seed=7000 + r,
                outlier_prob=contamination, outlier_var=boost * sigma**2,
            ).pinned()
            theta_o = spec.resolved_theta()
            plain.append(final_rse(
                RLS(p, sigma=sigma, plan=ThresholdPlan.ac_offline(p, pi_star)),
                spec, theta_o))
            robust.append(final_rse(
                RLS(p, sigma=sigma, tau_out=3.0,
                    plan=ThresholdPlan.ac_offline(p, pi_star)),
                spec, theta_o))
        gain = np.mean(plain) / np.mean(robust)
        print(f"{keep:>11.0%} {np.mean(plain):>12.3e} {np.mean(robust):>12.3e} {gain:>11.1f}x")
    print()
    print("identical streams feed both estimators; the only difference is the")
    print("clipped update beyond 3 sigma.")


if __name__ == "__main__":
    main()
