"""mzweak: joint weak measurements of path and polarization at desk scale.

Simulates a single photon crossing a Mach-Zehnder interferometer with weak
von Neumann couplers on both arms: exact 4-dim state calculus and weak
values (:mod:`mzweak.quantum`), closed-form Gaussian pointer dynamics
(:mod:`mzweak.pointer`), seeded photon-counting Monte Carlo
(:mod:`mzweak.detection`), and the bootstrap analysis chain that turns scan
counts into weak values with statistical and systematic errors
(:mod:`mzweak.analysis`). The :mod:`mzweak.cli` front end ties the pieces
into reproducible, config-driven runs.

The package root holds only ``__version__``; import the module you need,
e.g. ``from mzweak import quantum``.
"""

__version__ = "0.1.0"
