"""PV forecasting and economic dispatch toolkit."""

__version__ = "0.1.0"
