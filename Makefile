# Convenience targets for the repro repository.

PYTHON ?= python

.PHONY: install test check chaos lint bench bench-quick report examples \
	introspect-smoke service-smoke telemetry-smoke blackbox-smoke \
	ledger ledger-selftest ledger-pair ledger-gate loc calls clean help

help:
	@echo "install      editable install (offline-friendly)"
	@echo "test         run the full test suite"
	@echo "check        lint (bytecode compile) + tier-1 tests (CI entry)"
	@echo "chaos        the CI chaos job: SIGKILL recovery matrix, supervision + fault-plan + request-path tests, CLI chaos smoke (must draw a fault)"
	@echo "bench        regenerate every figure + ablation (1-512 nodes)"
	@echo "bench-quick  same sweep capped at 64 nodes"
	@echo "report       assemble benchmarks/results into markdown"
	@echo "examples     run every example script"
	@echo "introspect-smoke  census -> validate -> self-diff -> DOT -> explain; --pieces 0 exits 2 with no traceback"
	@echo "service-smoke  boot the analysis service, 3 tenants, chaos + verify"
	@echo "telemetry-smoke  serve --telemetry-out -> load_trace + replay the segments (24 completed) -> top --once, prof"
	@echo "blackbox-smoke  chaos serve on a bounded, witness-recording tracer -> load_trace the dumps (shards, ids, witnesses) -> blackbox, prof"
	@echo "ledger       the layer ledger: four workloads, every metric (benchmarks/ledger)"
	@echo "ledger-selftest  the ledger's ~28 s self-test + its own tests"
	@echo "ledger-pair  BASE=<rev> [N=10] [SEED=1]: N alternating ledger runs of BASE and this tree; wins, medians, quartiles, verdict"
	@echo "ledger-gate  BASE=<rev> [SEED=1]: one ledger run of BASE, one of this tree, through compare.py; fails on a 'worse' row (the CI gate)"
	@echo "loc          lines of Python per src/repro package and per-file bar, plus tests/ and benchmarks/"
	@echo "calls        Python call events per launch for each algorithm (the ledger's py_calls probe)"
	@echo "clean        remove build output, caches and untracked run output"

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples

check: lint
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The CLI smoke's seed-3 plan crashes a worker once; a run that draws no
# fault (`recovery: faults=none`) smokes the happy path only and fails.
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest -m chaos -q
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/distributed/test_faults.py \
		tests/distributed/test_recovery.py tests/distributed/test_wire.py \
		tests/distributed/test_one_path.py
	PYTHONPATH=src $(PYTHON) -m repro analyze --app stencil --pieces 4 \
		--iterations 3 --shards 4 --parallel 3 --chaos 3 --fault-rate 0.2 \
		--profile > chaos-smoke.txt
	cat chaos-smoke.txt
	grep -q "merge verified" chaos-smoke.txt
	grep -Eq "^recovery: faults=[a-z]+:[1-9]" chaos-smoke.txt

introspect-smoke:
	PYTHONPATH=src $(PYTHON) -m repro census --app stencil --pieces 4 \
		--iterations 2 --json > census.json
	PYTHONPATH=src $(PYTHON) -m repro census --app stencil --pieces 4 \
		--iterations 2 --algorithm warnock --json > census-warnock.json
	PYTHONPATH=src $(PYTHON) -c "import json, sys; \
		from repro.obs.census import validate_census; \
		[validate_census(json.load(open(f))) for f in sys.argv[1:]]; \
		print(*sys.argv[1:], 'schema valid')" census.json census-warnock.json
	PYTHONPATH=src $(PYTHON) -m repro census-diff census.json census.json
	PYTHONPATH=src $(PYTHON) -m repro census --app stencil --pieces 2 \
		--iterations 1 --dot > census.dot
	grep -q '^digraph' census.dot
	PYTHONPATH=src $(PYTHON) -m repro explain 7 --app stencil --pieces 4 \
		--iterations 2
	PYTHONPATH=src $(PYTHON) -m repro explain 7 --app stencil --pieces 4 \
		--iterations 2 --algorithm warnock
	PYTHONPATH=src $(PYTHON) -m repro census --pieces 0 2> rejected.err; \
		status=$$?; cat rejected.err; \
		test $$status -eq 2 && ! grep -q Traceback rejected.err

service-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/service/
	PYTHONPATH=src $(PYTHON) -m repro serve --backend process \
		--tenants 3 --sessions 24 --seed 2023 \
		--max-inflight 32 --queue-limit 32 --rate 1000 --burst 64 --verify
	PYTHONPATH=src $(PYTHON) -m repro serve --chaos 7 --fault-rate 0.1 \
		--tenants 3 --sessions 24 --seed 2023 \
		--max-inflight 32 --queue-limit 32 --rate 1000 --burst 64 --verify

telemetry-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/obs/test_telemetry.py \
		tests/obs/test_slo.py tests/obs/test_top.py \
		tests/obs/test_thread_safety.py
	rm -rf telemetry-out
	PYTHONPATH=src $(PYTHON) -m repro serve --backend process \
		--tenants 3 --sessions 24 --seed 2023 \
		--max-inflight 32 --queue-limit 32 --rate 1000 --burst 64 \
		--telemetry-out telemetry-out --telemetry-interval 0.1
	PYTHONPATH=src $(PYTHON) -c "from repro.obs import load_telemetry, \
		load_trace; \
		events = load_trace('telemetry-out')[0]['traceEvents']; \
		hub = load_telemetry('telemetry-out'); \
		done = hub.delta_matching('service.completed', '5m'); \
		assert done == 24, f'replay counts {done} completed sessions, not 24'; \
		print(f'telemetry-out: {len(events)} trace events valid, ' \
			f'{len(hub)} readings, {len(hub.alerts)} alert transitions')"
	PYTHONPATH=src $(PYTHON) -m repro top telemetry-out --once --window 5m
	PYTHONPATH=src $(PYTHON) -m repro prof telemetry-out --top 3

blackbox-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/obs/test_flight.py \
		tests/obs/test_tracer.py tests/obs/test_doctor.py \
		tests/service/test_blackbox.py
	rm -rf blackbox-out
	REPRO_PROVENANCE=1 PYTHONPATH=src $(PYTHON) -m repro serve --chaos 7 \
		--fault-rate 0.3 --tenants 3 --sessions 24 --seed 2023 \
		--max-inflight 32 --queue-limit 32 --rate 1000 --burst 64 \
		--flight-out blackbox-out --flight-cooldown 0.1
	PYTHONPATH=src $(PYTHON) -c "import glob; \
		from repro.obs import load_trace; \
		paths = sorted(glob.glob('blackbox-out/blackbox-*.json')); \
		assert paths, 'chaos run produced no blackbox dump'; \
		dumps = [load_trace(p) for p in paths]; \
		print(f'blackbox-out: {len(paths)} dump(s) valid trace-event files'); \
		spans = dumps[-1][1]; \
		ids = [s.span_id for s in spans]; \
		shards = {s.tid for s in spans}; \
		witnessed = sum('phase' in s.args for s in spans); \
		assert len(set(ids)) == len(ids), 'span ids collide in the dump'; \
		assert len(shards) >= 2, f'spans from one shard only: {shards}'; \
		assert witnessed, 'no span carries a witness payload'; \
		print(f'{paths[-1]}: {len(spans)} spans with unique ids from ' \
			f'{len(shards)} shards, {witnessed} carrying witnesses')"
	PYTHONPATH=src $(PYTHON) -m repro doctor
	PYTHONPATH=src sh -c '$(PYTHON) -m repro blackbox \
		"$$(ls blackbox-out/blackbox-*.json | tail -1)" --top 3'
	PYTHONPATH=src sh -c '$(PYTHON) -m repro prof \
		"$$(ls blackbox-out/blackbox-*.json | tail -1)" --top 3'

ledger:
	$(PYTHON) benchmarks/ledger/run.py

ledger-selftest:
	$(PYTHON) benchmarks/ledger/run.py --selftest
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks/ledger/test_ledger.py

# The choosing-metrics section-8 rule as one command: N pairs of full
# ledger runs, BASE (a `git archive` export under .bench_build/, so nothing
# is registered in .git) against this working tree, alternating which side
# goes first; each pair goes through compare.py, then one table of
# wins/ties, medians, quartiles and the rule's verdict (gain / loss /
# no change) per (workload, metric).
N ?= 10
SEED ?= 1
PAIR_DIR = .bench_build/pair

define LEDGER_PAIR_SUMMARY
import json, statistics, sys
sys.path.insert(0, "benchmarks/ledger")
import catalogue
out, n = sys.argv[1], int(sys.argv[2])
docs = {side: [json.load(open(f"{out}/{side}-{i}.json"))["workloads"]
               for i in range(1, n + 1)] for side in ("base", "head")}
def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")
def shown(q):
    return f"{q[1]:>10.5g} [{q[0]:.5g}, {q[2]:.5g}]"
print(f"{'workload':<12} {'metric':<24} {'wins/ties/n':<12} "
      f"{'base median [q1, q3]':<36} {'head median [q1, q3]':<36} "
      f"{'head/base':<10} verdict")
for workload in catalogue.WORKLOADS:
    for name, _, better, _ in catalogue.END_TO_END:
        a, b = ([run[workload]["end_to_end"]["metrics"][name]["value"]
                 for run in docs[side]] for side in ("base", "head"))
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        # choosing-metrics section 8: a side wins >= 9/10 of the pairs it
        # did not tie, and the medians differ by more than base's IQR
        gap, decided, verdict = sign * (qb[1] - qa[1]), n - ties, "no change"
        if abs(gap) > qa[2] - qa[0]:
            if gap > 0 and 10 * wins >= 9 * decided:
                verdict = "gain"
            elif gap < 0 and 10 * (decided - wins) >= 9 * decided:
                verdict = "loss"
        print(f"{workload:<12} {name:<24} {f'{wins}/{ties}/{n}':<12} "
              f"{shown(qa):<36} {shown(qb):<36} "
              f"{qb[1] / qa[1]:<10.3f} {verdict}")
endef
export LEDGER_PAIR_SUMMARY

# BASE as a `git archive` export; both sides start from fresh bytecode,
# or setup_s compares compilers
define LEDGER_EXPORT_BASE
@test -n "$(BASE)" || { echo "usage: make $@ BASE=<rev>"; exit 2; }
rm -rf $(PAIR_DIR) && mkdir -p $(PAIR_DIR)/base
git archive $(BASE) | tar -x -C $(PAIR_DIR)/base
$(PYTHON) -m compileall -q src benchmarks/ledger \
	$(PAIR_DIR)/base/src $(PAIR_DIR)/base/benchmarks/ledger
endef

ledger-pair:
	$(LEDGER_EXPORT_BASE)
	@for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; \
		else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then dir=$(PAIR_DIR)/base; else dir=.; fi; \
			echo "pair $$i/$(N): $$side"; \
			$(PYTHON) $$dir/benchmarks/ledger/run.py --seed $(SEED) \
				--out $(CURDIR)/$(PAIR_DIR)/$$side-$$i.json \
				> $(PAIR_DIR)/$$side-$$i.log || exit 1; \
		done; \
		$(PYTHON) benchmarks/ledger/compare.py $(PAIR_DIR)/base-$$i.json \
			$(PAIR_DIR)/head-$$i.json > $(PAIR_DIR)/compare-$$i.txt; \
		tail -1 $(PAIR_DIR)/compare-$$i.txt; \
	done
	@$(PYTHON) -c "$$LEDGER_PAIR_SUMMARY" $(PAIR_DIR) $(N)

# The one performance gate (CI runs it): BASE then this tree, one ledger run
# each, and compare.py's verdicts and exit status -- non-zero only when an
# end-to-end row is `worse`; `unresolved` rows are a printed note.
ledger-gate:
	$(LEDGER_EXPORT_BASE)
	$(PYTHON) $(PAIR_DIR)/base/benchmarks/ledger/run.py --seed $(SEED) \
		--out $(CURDIR)/$(PAIR_DIR)/base.json > $(PAIR_DIR)/base.log
	$(PYTHON) benchmarks/ledger/run.py --seed $(SEED) \
		--out $(CURDIR)/$(PAIR_DIR)/head.json > $(PAIR_DIR)/head.log
	@$(PYTHON) benchmarks/ledger/compare.py $(PAIR_DIR)/base.json \
		$(PAIR_DIR)/head.json > $(PAIR_DIR)/compare.txt; status=$$?; \
	cat $(PAIR_DIR)/compare.txt; \
	unresolved=$$(grep -c unresolved $(PAIR_DIR)/compare.txt); \
	[ $$unresolved -eq 0 ] || echo "note: $$unresolved unresolved row(s)" \
		"(repetitions disagree by more than the bound): not a failure"; \
	exit $$status

# The ROADMAP's size bars ("obs/ vs visibility/", "net negative LOC",
# the per-file bars) as one printed table; nothing gates on it.
loc:
	@for d in $$(ls -d src/repro/*/ | grep -v __pycache__) \
			src/repro/cli.py src/repro/distributed/backends.py \
			src/repro/visibility/eqset.py src/repro/visibility/meter.py \
			src/repro/visibility/painter.py src/repro tests benchmarks; do \
		printf '%7d  %s\n' \
			"$$(find $$d -name '*.py' -exec cat {} + | wc -l)" "$$d"; \
	done

# The ledger's runtime.py_calls_per_task probe for all five algorithms,
# on whichever Python runs it; nothing gates on it.
calls:
	@PYTHONPATH=src $(PYTHON) benchmarks/py_calls.py

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_BENCH_MAX_NODES=64 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ \
		--benchmark-only

report:
	PYTHONPATH=src $(PYTHON) -m repro report \
		--output benchmarks/results/REPORT.md

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; PYTHONPATH=src $(PYTHON) $$ex || exit 1; \
	done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis \
		.benchmarks .bench_build benchmarks/ledger/out \
		telemetry-out blackbox-out census.json census-warnock.json \
		census.dot rejected.err chaos-smoke.txt \
		trace.json
	find . -name __pycache__ -type d -exec rm -rf {} +
