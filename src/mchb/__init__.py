"""Multiphase Cahn-Hilliard-Brinkman/Darcy tumor-growth simulator."""

from .grid import (Grid, Neumann, Dirichlet, Extrapolate, Robin,
                   advective_divergence)
from .constitutive import (PotentialSpec, ChemicalEnergySpec, SourceSpec,
                           potential_eval,
                           convex_gradient, chemical_energy,
                           saturating_proliferation, truncation,
                           interface_polynomial, source_phase, source_nutrient,
                           source_velocity, mobility)
from .parameters import (ModelParameters, AssumptionReport, ScenarioConfig,
                         ConfigError, StrictAssumptionError, SpecBundle,
                         build_specs, default_parameters, validate_assumptions,
                         build_default_scenario, load_config, serialize_config)
from .flow import (FlowResult, BrinkmanOptions, FlowSolverError,
                   korteweg_force, solve_darcy, solve_brinkman, darcy_residual)
from .state import StateFields, build_initial_state
from .stepping import TimeStepper, StepReport, RunSummary, StepFailure
from .diagnostics import (EnergyReport, free_energy, dissipation_rate,
                          energy_law_residual, component_masses, CSV_HEADER)

__version__ = "0.1.0"
