"""cellform: exact arithmetic for convergent configurations, the leading
coefficients of their cellular integrals, and the modular-form
supercongruences they satisfy.

Import each name from the module that defines it; the package itself exports
only ``__version__``."""

__version__ = "0.1.0"
