"""numpy, imported on first use.

The modules that compute say ``from ._numpy import np``. The first attribute
read on ``np`` runs ``import numpy`` and caches the attribute on the proxy, so
importing the package (and running ``parse`` or ``--version``) never loads
numpy. A plain import holds the import lock and leaves ``sys.modules`` alone
until numpy is really needed.
"""


class _Numpy:
    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
