"""``python -m hlcolor``: the command-line front end of hlcolor.cli."""
from hlcolor.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
