"""The package republishes each module's __all__, and nothing else."""

import nlsoptics

EXPORTS = [
    "AliasingWarning", "BlowUpError", "ClosureWarning", "ConvergenceRow",
    "ConvergenceTable", "DivisorSurvey", "EuclidTrajectory", "FourierSeries",
    "GramProbe", "GridField", "InstabilityRecord", "ModeSet",
    "ProfileSpectrum", "ProfileStateEuclid", "ProfileStateTorus", "RemainderReport",
    "ResonantTuple", "SimParams", "SolveResult", "SolveStack", "SolverConfig",
    "TorusTrajectory", "WaveVector", "assemble_uapp", "close_under_resonances", "complete_rectangle",
    "default_dt", "default_grid_size", "e_norm", "enumerate_interactions",
    "explicit_euclid_1d", "explicit_torus_1d", "explicit_two_mode",
    "fit_generalized_bound", "free_propagator", "gram_diophantine_probe",
    "integrate_euclid", "integrate_torus", "interactions_for",
    "plane_wave_exact", "remainder_report",
    "resonance_defect", "run_convergence", "run_instability", "solve",
    "substitution_isometry_check", "sup_norm_of_field", "survey_divisors",
    "two_mode_theta", "w_norm", "w_norm_of_field",
]
MODULES = ("lattice_geometry", "profile_dynamics", "wiener_norms", "spectral_nls",
           "small_divisors", "wkb_pipeline")


def test_exports_are_pinned():
    assert sorted(nlsoptics.__all__) == EXPORTS
    assert len(nlsoptics.__all__) == len(EXPORTS)  # each name once


def test_each_name_comes_from_the_one_module_that_lists_it():
    for name in EXPORTS:
        homes = [m for m in MODULES if name in getattr(nlsoptics, m).__all__]
        assert len(homes) == 1, (name, homes)
        assert getattr(nlsoptics, name) is getattr(getattr(nlsoptics, homes[0]), name)
