"""Phasor-domain dynamics and small-signal stability toolkit for
grid-forming inverters with exponential frequency-power droop control."""

from .devices import (GfmDevice, GfmDroopEParams, GfmStaticParams,
                      PowerSharingSpec, SgDevice, SgParams, droop_e_offset,
                      static_droop_offset)
from .errors import (AlgebraicSolveError, DroopeError, InitializationError,
                     NumericError, PowerFlowError, ScenarioError, StepError,
                     TopologyError)
from .metrics import (FrequencyStats, aggregate_inertia,
                      compute_frequency_stats, headroom_table, peak_rocof,
                      weighted_frequency)
from .network import (Branch, Bus, BusKind, ConstantPowerLoad, NetworkModel,
                      PerUnitBases, PowerFlowSolution, build_admittance,
                      solve_power_flow)
from .scenario import (BUILTINS, DeviceSpec, Event, Scenario, SimConfig,
                       load_scenario)
from .smallsignal import (LinearizationResult, ModalResult, dispatch_sweep,
                          eigen_decompose, linearize, participation_factors)
from .system import PowerSystemDae, SystemState, solve_network_algebraic
from .timedomain import (SimulationTrace, TrapezoidalStepper,
                         release_dynamics, run_case)

__version__ = "0.1.0"
