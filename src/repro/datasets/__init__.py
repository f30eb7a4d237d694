"""Dataset builders: the synthetic snapshot and hand-built scenarios.

* :mod:`repro.datasets.config` — ``DatasetConfig`` and the
  ``small_config``/``paper_scale_config`` presets,
* :mod:`repro.datasets.synthetic` — ``build_snapshot``,
* :mod:`repro.datasets.snapshot_io` — ``save_snapshot``/``load_snapshot``,
* :mod:`repro.datasets.scenarios` — the hand-built paper scenarios.
"""
