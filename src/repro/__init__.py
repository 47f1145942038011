"""repro — a reproduction of Perf-Taint (PPoPP'21).

"Extracting Clean Performance Models from Tainted Programs" (Copik,
Calotoiu, Grosser, Wicki, Wolf, Hoefler): dynamic taint analysis as a
white-box prior for empirical performance modeling.

Quickstart::

    from repro import LuleshWorkload, PerfTaintPipeline

    pipeline = PerfTaintPipeline(workload=LuleshWorkload())
    result = pipeline.run({"p": [27, 64, 125], "size": [10, 20, 30]})
    for name, cmp in result.models.items():
        print(name, cmp.hybrid.format())

Or declaratively, with persistent and resumable stage artifacts (see
:mod:`repro.api` and :mod:`repro.registry`)::

    from repro.api import Campaign

    campaign = Campaign.from_spec(
        {"app": "lulesh", "parameters": {"p": [27, 64], "size": [10, 20]}},
        workspace="./campaign-ws",
    )
    result = campaign.run()  # reruns resume unchanged stages

Subpackages: :mod:`repro.ir` (program IR), :mod:`repro.interp` (metered
interpreter), :mod:`repro.taint` (taint engine), :mod:`repro.staticanalysis`
(compile-time phase), :mod:`repro.volume` (iteration-volume calculus),
:mod:`repro.mpisim` (MPI substrate), :mod:`repro.libdb` (library database),
:mod:`repro.measure` (profiling and experiments), :mod:`repro.modeling`
(Extra-P re-implementation), :mod:`repro.core` (the pipeline),
:mod:`repro.apps` (LULESH/MILC mini-apps).
"""

from .apps import LuleshWorkload, MilcWorkload, SyntheticWorkload
from .core import (
    Campaign,
    HybridModeler,
    PerfTaintPipeline,
    PerfTaintResult,
    detect_contention,
    detect_segmented_behavior,
    render_summary,
)
from .errors import ReproError
from .measure import InstrumentationMode
from .modeling import Model, Modeler, SearchPrior
from .taint import TaintEngine, TaintReport

__version__ = "1.0.0"

__all__ = [
    "Campaign",
    "HybridModeler",
    "InstrumentationMode",
    "LuleshWorkload",
    "MilcWorkload",
    "Model",
    "Modeler",
    "PerfTaintPipeline",
    "PerfTaintResult",
    "ReproError",
    "SearchPrior",
    "SyntheticWorkload",
    "TaintEngine",
    "TaintReport",
    "detect_contention",
    "detect_segmented_behavior",
    "render_summary",
    "__version__",
]
