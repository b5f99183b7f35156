"""The benchmark's traced mode wraps ``repro`` functions by name from
outside (``optbench.tracing.install_repro``). A rename in ``repro`` must
fail here, not silently in ``python3 optbench/run.py --trace 1``."""
import numpy as np

from optbench import tracing
from repro.core.plan import partition_subqs
from repro.core.workloads import build_query
from repro.model import predictor as P
from repro.params import default_conf


class _Recording(tracing.Tracer):
    """A tracer that also remembers what it replaced and the original."""

    def __init__(self):
        super().__init__()
        self.replaced: list[tuple] = []

    def wrap(self, owner, attr, name, **kw):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.replaced.append((owner, attr, orig))
        super().wrap(owner, attr, name, **kw)

    def wrap_item(self, mapping, key, name):
        self.replaced.append((mapping, key, mapping[key]))
        super().wrap_item(mapping, key, name)


def _current(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_repro_wraps_and_restores_every_name():
    tracer = _Recording()
    with tracer.installed(tracing.install_repro):
        assert tracer.replaced
        for owner, attr, orig in tracer.replaced:
            assert _current(owner, attr).__wrapped__ is orig, attr
        wrapped = {(getattr(o, "__name__", None), a) for o, a, _ in tracer.replaced}
        for fn in ("subq_feature_rows", "qs_feature_rows", "lqp_feature_rows",
                   "stage_derived"):
            assert ("repro.model.predictor", fn) in wrapped, fn
    for owner, attr, orig in tracer.replaced:
        assert _current(owner, attr) is orig, attr


def test_stage_context_calls_traced_names():
    """StageContext reaches the feature-row builders through module lookup,
    so the traced run still counts them."""
    dag = partition_subqs(build_query("tpch", "q3", sf=1.0))
    conf = default_conf()
    U = P.conf_to_vec_full(conf)[None, :]
    M = np.array([[conf[i] for i in P.FULL_IDS]])
    with tracing.Tracer().installed(tracing.install_repro) as tracer:
        c = P.StageContext.of(dag, min(dag.subqs), true=False)
        c.subq_rows(U, c.derived(M))
    names = [s.name for s in tracer.spans]
    assert names.count("predictor.feature_rows") == 1
    assert names.count("predictor.stage_derived") == 1
    assert "gtn.embed" in names
