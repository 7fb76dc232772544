"""The agent-based world that replays the 2022 Twitter->Mastodon migration.

The simulator produces the *world being measured*: a Twitter population, a
fediverse, and two months of posting/migration behaviour.  The collection
pipeline (:mod:`repro.collection`) then measures that world exactly the way
Section 3 of the paper measured the real one.

Entry point::

    from repro.simulation import SimConfig, build_world
    world = build_world(SimConfig(seed=7, scale=0.01))
"""

from repro.simulation.config import SimConfig, field_docs
from repro.simulation.contagion import ContagionModel
from repro.simulation.events import EventTimeline
from repro.simulation.instance_choice import InstanceChooser
from repro.simulation.population import InstanceSpec, SimUser
from repro.simulation.state import AgentColumns, WorldPlan, plan_world
from repro.simulation.switching import SwitchModel
from repro.simulation.trends import TrendsService
from repro.simulation.validation import ValidationReport, validate
from repro.simulation.world import World, build_world

__all__ = [
    # configuration
    "SimConfig",
    "field_docs",
    # world construction
    "World",
    "build_world",
    # columnar state / plan-mode scaling
    "AgentColumns",
    "WorldPlan",
    "plan_world",
    # component models
    "ContagionModel",
    "EventTimeline",
    "InstanceChooser",
    "InstanceSpec",
    "SimUser",
    "SwitchModel",
    "TrendsService",
    # validation
    "ValidationReport",
    "validate",
]
