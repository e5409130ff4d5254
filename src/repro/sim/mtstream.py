"""Placeholders for the retired MT19937 word path of the batched kernel.

Exists only because bench/ imports these names (``HAVE_NUMPY`` for its
environment stamp, ``WordStream.raw`` as a trace seam); deleted by the
next benchmark change, which drops the workloads.word_* seams.
"""

# False whether or not NumPy is installed: nothing in the simulator uses
# it. bench/child.py imports NumPy after a run when this is True, which
# would add NumPy's ~8 MiB to the peak RSS the benchmark reports.
HAVE_NUMPY = False


class WordStream:
    def raw(self, count):
        raise RuntimeError("word path removed")
