"""Behavioral calculus of system-environment fit, with an adaptation simulator.

Behaviors are classified and scoped symbolic values carrying a strict
partial order and a metric; supply and fit score a system against its
environment; cybernetic classes compare whole adaptive systems organ by
organ; and a discrete-tick simulator runs controllers and sensor networks
against turbulent environment traces.
"""

from .behavior import *
from .controller import *
from .cybernetic import *
from .environment import *
from .metrics import *
from .scenario import *
from .sensors import *
from .simulate import *

__version__ = "0.1.0"
