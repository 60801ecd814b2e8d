import sys

try:
    from .cli import main
except MemoryError as exc:  # as cli.main reports one raised while it runs
    print(f"aborted: MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
    sys.exit(2)

sys.exit(main())
