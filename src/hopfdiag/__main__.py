"""``python -m hopfdiag``: the hopfdiag command line (``cli.main``)."""
from .cli import main
raise SystemExit(main())
