"""A frozen copy of the bac modules that ``control`` runs.

Every other file here is byte-identical to ``src/bac/<name>.py`` as it was
when this benchmark was defined.  Never update them to follow ``src/bac``:
the control has to run the same code on every commit, so that its time
measures the host and not the code under test.
"""
