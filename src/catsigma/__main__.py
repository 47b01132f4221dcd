"""``python -m catsigma``: the same command as the ``catsigma`` script."""

from .cli import main

main()
