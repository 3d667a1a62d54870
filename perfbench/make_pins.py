"""Write the pinned CSVs: every workload at every seed in PIN_SEEDS.

The pins are golden outputs. Regenerate them only when a change to the model
is meant to change the CSV, and say so where the change is recorded.

    python3 perfbench/make_pins.py
"""

from workloads import PIN_SEEDS, PINS, WORKLOADS, pin_path, run_pass


def main() -> None:
    PINS.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        for seed in PIN_SEEDS:
            pin_path(name, seed).write_text(run_pass(workload, seed), encoding="utf-8")
            print(f"wrote {pin_path(name, seed)}")


if __name__ == "__main__":
    main()
