"""``python -m geotax`` and the ``geotax`` console script: run
``geotax.cli`` as the program, so its start-up settings take effect before
numpy loads."""

import runpy


def main() -> None:
    runpy.run_module("geotax.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
