"""Repository checks that are not part of the library.

``python -m tools.smoke ROW`` runs one CI smoke row from the repository
root.  ``tools`` sits beside ``src/`` rather than under it, so
installing ``repro`` does not install it, and no module under
``src/repro`` imports it.
"""
