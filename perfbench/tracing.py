"""Layer clock, spans and Spark job accounting for the traced run.

Spark work is lazy: ``retrieve_cand`` and ``score_pairs`` return plans
that run at the next action in the caller. The clock therefore keeps a
*current layer*. Entering a hooked entry point makes its layer current;
leaving an eager one hands the clock back to the caller's layer, but
leaving a lazy one keeps its layer current ("sticky") until the next
hooked call enters or leaves, so the action that runs the plan is
charged to the layer that built it. Each layer gets wall time, driver
CPU time and its own Spark job group; wall minus CPU is the time the
driver waited (mostly py4j calls into the JVM).

Hooks replace a function by identity in every loaded ``repro`` module,
so a caller that imported the name (``from repro.core.evaluate import
blocker_recall``) sees the wrapper too. A hook whose target no longer
exists is skipped and its time lands in ``untimed_s``. Never hook a
function that a closure shipped to the executors references: the
closure would pickle the wrapper, tracer and all.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

GLUE = "glue"  # the AL loop's own code between hooked calls
OWN = "trace"  # the tracer's own work: bookkeeping, counting pairs, collecting frames


class Tracer:
    """Attributes wall/CPU time and Spark jobs to the current layer."""

    def __init__(self, sc, tag: str):
        self.sc = sc
        self.tag = tag
        self.wall: dict[str, float] = defaultdict(float)
        self.cpu: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.layers: set[str] = {GLUE}
        self._stack: list[tuple[str, int]] = []
        self._sticky: str | None = None
        self._mark = (time.perf_counter(), time.process_time())
        self.t0 = self._mark[0]
        self._set_group(GLUE)

    # -- clock -------------------------------------------------------------
    def current(self) -> str:
        if self._sticky:
            return self._sticky
        return self._stack[-1][0] if self._stack else GLUE

    @property
    def at_glue(self) -> bool:
        return not self._stack and self._sticky is None

    def _tick(self, layer: str | None = None) -> None:
        now = (time.perf_counter(), time.process_time())
        layer = layer or self.current()
        self.wall[layer] += now[0] - self._mark[0]
        self.cpu[layer] += now[1] - self._mark[1]
        self._mark = now

    def _set_group(self, layer: str) -> None:
        self.sc.setJobGroup(self.group(layer), layer)

    def group(self, layer: str) -> str:
        return f"{self.tag}:{layer}"

    def enter(self, layer: str, name: str) -> None:
        self._tick()
        self._sticky = None
        parent = self._stack[-1][1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append((layer, len(self.spans) - 1))
        self.layers.add(layer)
        self._set_group(layer)
        self._tick(OWN)  # the bookkeeping above is tracing overhead

    def leave(self, lazy: bool = False) -> None:
        self._tick()
        layer, i = self._stack.pop()
        self.spans[i][2] = time.perf_counter()
        self._sticky = layer if lazy else None
        self._set_group(self.current())
        self._tick(OWN)

    @contextmanager
    def layer(self, layer: str, name: str | None = None):
        self.enter(layer, name or layer)
        try:
            yield
        finally:
            self.leave()

    def span_records(self) -> list[list]:
        """[name, start, end, parent index] with times relative to creation."""
        return [[n, round(a - self.t0, 6), round(b - self.t0, 6), p]
                for n, a, b, p in self.spans]

    def close(self) -> None:
        self._tick()
        self.sc.setJobGroup(f"{self.tag}:closed", "closed")

    # -- Spark jobs --------------------------------------------------------
    def jobs(self, layer: str) -> dict:
        """Jobs, stages that ran, tasks and failed tasks of one layer."""
        st = self.sc.statusTracker()
        out = {"jobs": 0, "stages": 0, "tasks": 0, "failed_tasks": 0}
        for jid in st.getJobIdsForGroup(self.group(layer)):
            info = st.getJobInfo(jid)
            out["jobs"] += 1
            for sid in info.stageIds if info else ():
                si = st.getStageInfo(sid)
                if si is None or si.numCompletedTasks + si.numFailedTasks == 0:
                    continue  # skipped (cached) stage
                out["stages"] += 1
                out["tasks"] += si.numCompletedTasks
                out["failed_tasks"] += si.numFailedTasks
        return out

    def settle(self, timeout: float = 5.0) -> None:
        """Wait until the listener bus has recorded the end of every job."""
        st = self.sc.statusTracker()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pending = [
                j for layer in self.layers
                for j in st.getJobIdsForGroup(self.group(layer))
                if (info := st.getJobInfo(j)) is None or info.status == "RUNNING"
            ]
            if not pending:
                return
            time.sleep(0.05)


def resolve(path: str):
    """'pkg.mod:Name.attr' → (owner object, attribute name, current value)."""
    mod_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(mod_name)
    *owners, attr = attr_path.split(".")
    for o in owners:
        owner = getattr(owner, o)
    return owner, attr, getattr(owner, attr)


class Hooks:
    """Installs wrappers by identity across ``repro`` modules; undoes them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, path: str, make_wrapper) -> None:
        try:
            owner, attr, orig = resolve(path)
        except (ImportError, AttributeError):
            return
        wrapper = make_wrapper(orig)
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):  # module-level function: rebind imports too
            for name, mod in list(sys.modules.items()):
                if mod is None or mod is owner or not name.startswith("repro"):
                    continue
                targets += [(mod, a) for a, v in vars(mod).items() if v is orig]
        for obj, a in targets:
            self._undo.append((obj, a, orig))
            setattr(obj, a, wrapper)

    def undo(self) -> None:
        for obj, a, orig in reversed(self._undo):
            setattr(obj, a, orig)
        self._undo.clear()


def install_layer_hooks(hooks: Hooks, tr: Tracer, test_df, test_rows: int,
                        on_final_eval) -> None:
    """Hook every layer entry point of ``run_al`` and ``run_rf_qbc``.

    ``test_df`` is the dataset's D_test DataFrame (``test_rows`` rows):
    scoring it is part of evaluation, scoring anything else is the
    matcher's (or forest's) scoring layer. ``on_final_eval(name, args)``
    sees the arguments of each evaluation call, for the DuckDB
    recomputation.
    """

    def hook(path, layer, *, lazy=False, before=None):
        def make(orig):
            def wrapper(*a, **kw):
                if before is not None:
                    before(a, kw)
                lay = layer(a, kw) if callable(layer) else layer
                tr.enter(lay, path)
                try:
                    return orig(*a, **kw)
                finally:
                    tr.leave(lazy=lazy)
            return wrapper
        hooks.wrap(path, make)

    def count(key, n=1):
        tr.counts[key] += n

    def fit_pairs(key):
        # Matcher.fit(self, er, es, align, labels) / Blocker.fit(self, ...)
        def before(a, kw):
            count(f"{key}.fit_calls")
            labels = kw.get("labels", a[4] if len(a) > 4 else None)
            if labels is not None:
                count(f"{key}.train_pairs", len(labels))
        return before

    def scored(kind):
        def layer(a, kw):
            pairs = kw.get("pairs", a[1] if len(a) > 1 else None)
            return "evaluate" if pairs is test_df else f"{kind}.score"

        def before(a, kw):
            pairs = kw.get("pairs", a[1] if len(a) > 1 else None)
            count(f"{kind}.score_calls")
            if pairs is test_df:
                count(f"{kind}.scored_pairs", test_rows)
            else:  # CAND is cached by the loop, so counting it is cheap
                with tr.layer(OWN, "count_pairs"):
                    count(f"{kind}.scored_pairs", pairs.count())
        return layer, before

    def evaluation(name):
        def before(a, kw):
            on_final_eval(name, a)
        return before

    # DIAL (run_al)
    hook("repro.core.dial:_train_matcher", "matcher.train")
    hook("repro.core.matcher:Matcher.fit", "matcher.train", before=fit_pairs("matcher"))
    hook("repro.core.matcher:pair_align_features", "matcher.train")
    hook("repro.core.dial:_member_embeddings", "blocker.train")
    hook("repro.core.blocker:Blocker.fit", "blocker.train", before=fit_pairs("blocker"))
    hook("repro.core.ibc:retrieve_cand", "ibc.retrieve", lazy=True,
         before=lambda a, kw: count("ibc.calls"))
    layer, before = scored("matcher")
    hook("repro.core.matcher:score_pairs", layer, lazy=True, before=before)
    hook("repro.core.selectors:select", "selectors")
    # RF-QBC (run_rf_qbc)
    hook("repro.forest.forest:RandomForest.fit", "forest.train")
    hook("repro.forest.features:PairFeaturizer.__call__",
         lambda a, kw: "forest.train" if tr.at_glue else tr.current())
    layer, before = scored("forest")
    hook("repro.core.baselines:score_forest", layer, lazy=True, before=before)
    # shared evaluation (§4.1)
    for fn in ("blocker_recall", "all_pairs_prf", "test_prf"):
        hook(f"repro.core.evaluate:{fn}", "evaluate", before=evaluation(fn))

    # Actions the loop itself runs: materializing the cached Rules CAND
    # at the start of a run, and collecting the scored CAND for selection.
    from pyspark.sql import SparkSession

    df_cls = type(SparkSession.getActiveSession().range(1))

    def glue_action(layer):
        def make(orig):
            def action(self, *a, **kw):
                if not tr.at_glue:
                    return orig(self, *a, **kw)
                tr.enter(layer, f"DataFrame.{orig.__name__}")
                try:
                    return orig(self, *a, **kw)
                finally:
                    tr.leave()
            return action
        return make

    where = f"{df_cls.__module__}:{df_cls.__name__}"
    hooks.wrap(f"{where}.count", glue_action("rules.loop"))
    hooks.wrap(f"{where}.toPandas", glue_action("selectors"))
