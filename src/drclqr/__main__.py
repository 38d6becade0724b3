"""`python -m drclqr`: the drclqr command line."""

from .cli import main

if __name__ == "__main__":
    main()
