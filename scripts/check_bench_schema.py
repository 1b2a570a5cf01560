#!/usr/bin/env python3
"""Validate the committed bench records against their schemas.

Usage:
    check_bench_schema.py BENCH_serving.json BENCH_runtime.json ...

Each file is dispatched on its top-level "schema" tag:

* ``upanns-serving-bench-v6`` — the discrete-event replay record written by
  ``serve --json`` (default replay runtime).
* ``upanns-runtime-bench-v3`` — the threaded-runtime sweep written by
  ``serve --runtime threaded --json``.

Checks are structural (required keys, types, row shapes) plus the
invariants a record must never violate to be worth committing:

* every runtime row conserves queries (``lost == 0``, ``duplicated == 0``,
  ``completed + shed == num_queries``);
* counters are non-negative, fractions live in [0, 1];
* the runtime sweep contains every workload (single, multi, failover,
  live-mutation) and more than one worker count (otherwise it cannot show
  scaling);
* the serving failover row carries a recovery envelope that actually
  recovered, and only failover rows carry one;
* runtime failover and live-mutation rows ran in deterministic logical mode
  (fault schedules and epoch visibility live on the simulated clock);
* serving live rows carry the live-mutation audit: ``stale_served == 0``
  (the snapshot-consistency contract), a recall-vs-staleness curve with the
  four committed lag buckets, and only live rows carry one.

Beyond the schema, each record must keep the contracts its committed
scenarios exist to demonstrate (``check_serving_contracts`` and
``check_runtime_contracts``):

* the HOL scenario: priority-chunked dispatch meets every tenant's SLO, while
  window-only isolation and every single-window policy fail one;
* the kill-a-host scenario stays inside its recovery envelope and exercised
  every fault-tolerance path;
* the live-mutation rows hold the consistency contract and the
  p99-during-compaction and recall-vs-staleness envelopes;
* the runtime record carries a logical, conserving live-mutation row at every
  worker count.

Exit status 0 when every file validates; 1 with a per-file message
otherwise. This replaces the old inline ``python3 -m json.tool`` CI calls,
which only proved the files were JSON.
"""

import json
import sys

SERVING_SCHEMA = "upanns-serving-bench-v6"
RUNTIME_SCHEMA = "upanns-runtime-bench-v3"

SERVING_WORKLOADS = ("single", "multi", "failover", "live-mutation", "live-growth")
RUNTIME_WORKLOADS = ("single", "multi", "failover", "live-mutation")

# The committed recall-vs-staleness bucket labels, in order.
STALENESS_LAGS = ("lag=0", "lag=1-10", "lag=11-100", "lag=101+")

SERVING_ROW_KEYS = {
    "name", "workload", "policy", "sustained_qps", "p50_ms", "p99_ms",
    "mean_ms", "slo_miss_fraction", "meets_slo", "all_tenants_meet_slo",
    "completed", "shed", "cache_hit_rate", "cache_invalidated", "batches",
    "mean_batch_size",
    "dispatched_chunks", "mean_chunk_size", "final_max_batch",
    "final_max_delay_ms", "controller_adjustments", "engine_busy_s",
    "degraded", "hedged", "redispatched", "scale_events", "migration_s",
    "envelope", "live", "tenants",
}

LIVE_KEYS = {
    "final_epoch", "snapshots", "compactions", "mutation_events",
    "stale_served", "answered_in_window", "p99_steady_ms",
    "p99_compaction_ms", "recall_vs_staleness",
}

LIVE_BUCKET_KEYS = {"lag", "queries", "mean_recall"}

ENVELOPE_KEYS = {
    "bucket_s", "t_down", "baseline_attainment", "max_dip", "dip_at",
    "recovery_s", "recovered",
}

RUNTIME_ROW_KEYS = {
    "engine", "workload", "mode", "policy", "workers", "offered_qps",
    "num_queries", "sustained_qps", "p50_ms", "p99_ms", "mean_ms",
    "completed", "shed", "lost", "duplicated", "degraded", "hedged",
    "redispatched", "cache_hit_rate", "cache_invalidated",
    "dispatched_chunks", "busy_modeled_s",
    "makespan_s", "emulated_utilization", "tenants",
}

RUNTIME_TENANT_KEYS = {
    "tenant", "slo_ms", "completed", "shed", "p50_ms", "p99_ms",
    "slo_miss_fraction", "meets_slo",
}

# The multi-tenant policies of the committed HOL scenario.
MULTI_POLICIES = {"fixed", "adaptive-slo", "adaptive-tenant", "adaptive-tenant-chunked"}

# The failover knobs the serving config must record.
FAILOVER_CONFIG_KEYS = ("replicas", "fault", "hedge_ms")


class SchemaError(Exception):
    pass


def require(cond, message):
    if not cond:
        raise SchemaError(message)


def check_keys(obj, expected, label):
    require(isinstance(obj, dict), f"{label} is not an object")
    missing = expected - set(obj)
    extra = set(obj) - expected
    require(not missing, f"{label} is missing keys: {sorted(missing)}")
    require(not extra, f"{label} has unexpected keys: {sorted(extra)}")


def check_fraction(value, label):
    require(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
            f"{label} = {value!r} is not a fraction in [0, 1]")


def check_count(value, label):
    require(isinstance(value, int) and value >= 0,
            f"{label} = {value!r} is not a non-negative integer")


def check_serving(doc):
    require(set(doc) == {"schema", "config", "engines"},
            f"top-level keys {sorted(doc)} != ['config', 'engines', 'schema']")
    require(isinstance(doc["config"], dict) and doc["config"],
            "config block is missing or empty")
    rows = doc["engines"]
    require(isinstance(rows, list) and rows, "engines list is missing or empty")
    for i, row in enumerate(rows):
        label = f"engines[{i}]"
        check_keys(row, SERVING_ROW_KEYS, label)
        require(row["workload"] in SERVING_WORKLOADS,
                f"{label}.workload = {row['workload']!r}")
        for key in ("completed", "shed", "batches", "dispatched_chunks",
                    "degraded", "hedged", "redispatched", "scale_events",
                    "cache_invalidated"):
            check_count(row[key], f"{label}.{key}")
        for key in ("slo_miss_fraction", "cache_hit_rate"):
            check_fraction(row[key], f"{label}.{key}")
        require(isinstance(row["migration_s"], (int, float))
                and row["migration_s"] >= 0,
                f"{label}.migration_s = {row['migration_s']!r}")
        require(isinstance(row["tenants"], list), f"{label}.tenants is not a list")
        if row["workload"] == "failover":
            check_envelope(row["envelope"], f"{label}.envelope")
        else:
            require(row["envelope"] is None,
                    f"{label} is a {row['workload']} row but carries an envelope")
        if row["workload"].startswith("live"):
            check_live(row["live"], row, f"{label}.live")
        else:
            require(row["live"] is None,
                    f"{label} is a {row['workload']} row but carries a live audit")
    workloads = {r["workload"] for r in rows}
    require(workloads == set(SERVING_WORKLOADS),
            f"expected {sorted(SERVING_WORKLOADS)} rows, got {sorted(workloads)}")
    check_serving_contracts(doc)


def check_serving_contracts(doc):
    check_hol_scenario(doc)
    check_kill_a_host(doc)
    check_live_contract(doc)


def check_hol_scenario(doc):
    """The committed HOL scenario separates chunked priority dispatch from
    window-only isolation."""
    multi = {r["policy"]: r for r in doc["engines"] if r["workload"] == "multi"}
    require(set(multi) == MULTI_POLICIES, set(multi))
    # Priority-chunked dispatch meets every tenant's SLO...
    chunked = multi["adaptive-tenant-chunked"]
    require(chunked["all_tenants_meet_slo"], chunked)
    # ...and really chunked the bulk batches (more chunks than batches).
    require(chunked["dispatched_chunks"] > chunked["batches"], chunked)
    # Window-only per-tenant isolation (the adaptive-tenant row) still eats
    # engine-level head-of-line blocking: the tight tenant misses.
    window_only = multi["adaptive-tenant"]
    require(not window_only["all_tenants_meet_slo"], window_only)
    tight = next(t for t in window_only["tenants"] if t["tenant"] == "tight")
    require(not tight["meets_slo"], tight)
    # Every single-window policy fails at least one tenant too.
    for name in ("fixed", "adaptive-slo"):
        require(not multi[name]["all_tenants_meet_slo"], (name, multi[name]))
    # Shed queries are charged as SLO misses, never silently dropped.
    for row in multi.values():
        for t in row["tenants"]:
            if t["shed"] > 0 and t["slo_ms"] is not None:
                require(t["slo_miss_fraction"]
                        >= t["shed"] / (t["completed"] + t["shed"]) - 1e-9,
                        (row["policy"], t))
    print("HOL scenario: chunked priority dispatch meets both SLOs; "
          "window-only isolation and global windows do not")


def check_kill_a_host(doc):
    """The committed kill-a-host scenario stays inside the recovery envelope."""
    cfg = doc["config"]
    # The scenario's knobs are part of the record: a change to the
    # defaults must regenerate the record in the same PR.
    for key in FAILOVER_CONFIG_KEYS:
        require(key in cfg, f"config lacks {key!r}")
    require(cfg["replicas"] >= 2, cfg)
    rows = [r for r in doc["engines"] if r["workload"] == "failover"]
    require(len(rows) == 1, [r["name"] for r in rows])
    row = rows[0]
    # Zero lost or duplicated answers: the replay conserves by
    # construction, so completed must equal the offered stream and
    # nothing may shed even while a host is down.
    require(row["shed"] == 0, row)
    require(row["completed"] > 0, row)
    # Replication masked the outage: no query was answered from
    # partial shard coverage.
    require(row["degraded"] == 0, row)
    # The run exercised every fault-tolerance path at least once.
    require(row["hedged"] > 0, "hedged retries never fired")
    require(row["redispatched"] > 0, "mid-flight redispatch never fired")
    require(row["scale_events"] > 0, "the autoscaler never reacted")
    require(row["migration_s"] > 0, "scaling out charged no transfer time")
    env = row["envelope"]
    # The CI-asserted recovery envelope: the outage must dent
    # attainment (the scenario is tuned to saturate on host loss),
    # the dip must stay bounded, and attainment must climb back
    # within six buckets of the failure instant.
    require(env["recovered"] is True, env)
    require(env["baseline_attainment"] >= 0.99, env)
    require(0.0 < env["max_dip"] <= 0.5, env)
    require(env["recovery_s"] <= 30.0, env)
    print(f"kill-a-host: dip {env['max_dip']:.3f} at t={env['dip_at']}, "
          f"recovered in {env['recovery_s']}s; hedged {row['hedged']}, "
          f"redispatched {row['redispatched']}, scale events {row['scale_events']}")


def check_live_contract(doc):
    """The committed live-mutation scenario holds the consistency contract
    and its envelope."""
    cfg = doc["config"]
    # The mutation stream is part of the record: a change to the
    # committed spec must regenerate the record in the same PR.
    require(cfg["mutations"] != "none", cfg)
    require(cfg["live_refresh_s"] > 0, cfg)
    rows = {r["workload"]: r for r in doc["engines"]
            if r["workload"].startswith("live")}
    require(set(rows) == {"live-mutation", "live-growth"}, set(rows))
    for name, row in rows.items():
        live = row["live"]
        # The consistency contract: zero answers served from a stale
        # snapshot, ever (each answer re-executed at its own arrival).
        require(live["stale_served"] == 0, (name, live))
        # Mutations actually flowed and became visible mid-stream.
        require(live["mutation_events"] > 0 and live["final_epoch"] > 0, (name, live))
        require(live["snapshots"] >= 2, (name, live))
        # Background compaction actually ran, and queries arrived
        # while it was running — otherwise the p99-during-compaction
        # column measures nothing.
        require(live["compactions"] >= 1, (name, live))
        require(live["answered_in_window"] > 0, (name, live))
        # The p99-during-compaction envelope: mid-compaction arrivals
        # pay the modeled stall but stay within 2x of steady state
        # plus the stall itself — compaction must not collapse serving.
        require(live["p99_compaction_ms"] <= 2.0 * live["p99_steady_ms"] + 10_000.0,
                (name, live))
        # The recall-vs-staleness curve: fresh snapshots answer
        # exactly, and even the stalest bucket stays above 0.9 —
        # bounded staleness, not unbounded drift.
        curve = {b["lag"]: b for b in live["recall_vs_staleness"]}
        require(curve["lag=0"]["mean_recall"] >= 0.999, (name, curve))
        require(all(b["mean_recall"] >= 0.9 for b in curve.values()), (name, curve))
        # The committed stream is busy enough to populate the deep
        # staleness buckets (the curve's whole point).
        require(curve["lag=11-100"]["queries"] > 0, (name, curve))
    # Epoch invalidation fired on the committed single-tenant row:
    # repeats straddling a refresh boundary recompute, never serve stale.
    require(rows["live-mutation"]["cache_invalidated"] > 0, rows["live-mutation"])
    # The growth row is the tenant-corpus-grows-mid-stream case: it
    # rides the multi-tenant mix.
    require(len(rows["live-growth"]["tenants"]) >= 2, rows["live-growth"])
    lm = rows["live-mutation"]["live"]
    print(f"live-mutation: {lm['mutation_events']} events, "
          f"{lm['compactions']} compactions, stale_served=0, "
          f"p99 steady {lm['p99_steady_ms']:.0f} ms vs "
          f"compaction {lm['p99_compaction_ms']:.0f} ms; "
          f"{rows['live-mutation']['cache_invalidated']} cache invalidations")


def check_live(live, row, label):
    """A committed live row must prove the consistency contract held: zero
    answers differ from their arrival snapshot, mutations actually flowed,
    and the recall-vs-staleness curve has the committed bucket shape."""
    check_keys(live, LIVE_KEYS, label)
    for key in ("final_epoch", "snapshots", "compactions", "mutation_events",
                "stale_served", "answered_in_window"):
        check_count(live[key], f"{label}.{key}")
    require(live["stale_served"] == 0,
            f"{label}: {live['stale_served']} served answers differ from "
            "their arrival snapshot — the consistency contract is broken")
    require(live["mutation_events"] > 0,
            f"{label}: a live row with no mutations proves nothing")
    require(live["final_epoch"] > 0, f"{label}.final_epoch = 0")
    require(live["snapshots"] >= 2,
            f"{label}: {live['snapshots']} snapshots means no epoch ever "
            "became visible mid-stream")
    for key in ("p99_steady_ms", "p99_compaction_ms"):
        require(isinstance(live[key], (int, float)) and live[key] >= 0,
                f"{label}.{key} = {live[key]!r}")
    curve = live["recall_vs_staleness"]
    require(isinstance(curve, list) and
            tuple(b.get("lag") for b in curve) == STALENESS_LAGS,
            f"{label}.recall_vs_staleness lacks the committed lag buckets "
            f"{STALENESS_LAGS}")
    for j, bucket in enumerate(curve):
        blabel = f"{label}.recall_vs_staleness[{j}]"
        check_keys(bucket, LIVE_BUCKET_KEYS, blabel)
        check_count(bucket["queries"], f"{blabel}.queries")
        check_fraction(bucket["mean_recall"], f"{blabel}.mean_recall")
    answered = sum(b["queries"] for b in curve)
    require(answered == row["completed"],
            f"{label}: staleness buckets cover {answered} queries but the "
            f"row completed {row['completed']}")


def check_envelope(env, label):
    """A committed failover row must prove the deployment recovered: the
    envelope is the CI-asserted contract (max dip bounded, recovery reached
    within the run) — a record showing an unrecovered outage must not land."""
    check_keys(env, ENVELOPE_KEYS, label)
    require(isinstance(env["bucket_s"], (int, float)) and env["bucket_s"] > 0,
            f"{label}.bucket_s = {env['bucket_s']!r}")
    require(isinstance(env["t_down"], (int, float)) and env["t_down"] >= 0,
            f"{label}.t_down = {env['t_down']!r}")
    check_fraction(env["baseline_attainment"], f"{label}.baseline_attainment")
    require(env["baseline_attainment"] > 0,
            f"{label}: baseline attainment {env['baseline_attainment']} means "
            "the deployment was already failing before the outage")
    check_fraction(env["max_dip"], f"{label}.max_dip")
    require(env["recovered"] is True,
            f"{label}: the scenario never recovered from its outage")
    require(isinstance(env["recovery_s"], (int, float)) and env["recovery_s"] >= 0,
            f"{label}.recovery_s = {env['recovery_s']!r}")
    require(isinstance(env["dip_at"], (int, float))
            and env["dip_at"] >= env["t_down"],
            f"{label}.dip_at = {env['dip_at']!r} precedes the outage")


def check_runtime(doc):
    require(set(doc) == {"schema", "config", "rows"},
            f"top-level keys {sorted(doc)} != ['config', 'rows', 'schema']")
    require(isinstance(doc["config"], dict) and doc["config"],
            "config block is missing or empty")
    rows = doc["rows"]
    require(isinstance(rows, list) and rows, "rows list is missing or empty")
    for i, row in enumerate(rows):
        label = f"rows[{i}]"
        check_keys(row, RUNTIME_ROW_KEYS, label)
        require(row["workload"] in RUNTIME_WORKLOADS,
                f"{label}.workload = {row['workload']!r}")
        require(row["mode"] in ("wall", "logical"), f"{label}.mode = {row['mode']!r}")
        if row["workload"] in ("failover", "live-mutation"):
            # Fault schedules and epoch visibility live on the simulated
            # clock, so these rows are only meaningful (and only
            # deterministic) in logical mode.
            require(row["mode"] == "logical",
                    f"{label} is a {row['workload']} row in {row['mode']!r} mode")
        for key in ("completed", "shed", "lost", "duplicated", "workers",
                    "num_queries", "dispatched_chunks", "degraded", "hedged",
                    "redispatched", "cache_invalidated"):
            check_count(row[key], f"{label}.{key}")
        require(row["workers"] >= 1, f"{label}.workers = {row['workers']}")
        # The conservation contract: a committed record proving the runtime
        # dropped or double-answered queries must never land.
        require(row["lost"] == 0, f"{label} lost {row['lost']} queries")
        require(row["duplicated"] == 0,
                f"{label} duplicated {row['duplicated']} queries")
        require(row["completed"] + row["shed"] == row["num_queries"],
                f"{label}: completed {row['completed']} + shed {row['shed']} "
                f"!= offered {row['num_queries']}")
        check_fraction(row["cache_hit_rate"], f"{label}.cache_hit_rate")
        require(row["makespan_s"] > 0, f"{label}.makespan_s = {row['makespan_s']}")
        for j, t in enumerate(row["tenants"]):
            tlabel = f"{label}.tenants[{j}]"
            check_keys(t, RUNTIME_TENANT_KEYS, tlabel)
            check_count(t["completed"], f"{tlabel}.completed")
            check_count(t["shed"], f"{tlabel}.shed")
            check_fraction(t["slo_miss_fraction"], f"{tlabel}.slo_miss_fraction")
        if row["workload"] == "multi":
            require(len(row["tenants"]) >= 2,
                    f"{label} is a multi-tenant row with {len(row['tenants'])} tenants")
    workloads = {r["workload"] for r in rows}
    require(workloads == set(RUNTIME_WORKLOADS),
            f"expected {sorted(RUNTIME_WORKLOADS)} rows, got {sorted(workloads)}")
    worker_counts = {r["workers"] for r in rows}
    require(len(worker_counts) > 1,
            f"a one-worker-count sweep ({sorted(worker_counts)}) cannot show scaling")
    check_runtime_contracts(doc)


def check_runtime_contracts(doc):
    """The runtime record carries logical live-mutation rows at every worker
    count."""
    live = [r for r in doc["rows"] if r["workload"] == "live-mutation"]
    workers = sorted(r["workers"] for r in live)
    require(workers == sorted(doc["config"]["workers"]), workers)
    for r in live:
        # Deterministic logical mode, full conservation, nothing shed:
        # the threaded pipeline must not lose, duplicate, or drop
        # queries while the index mutates under it.
        require(r["mode"] == "logical", r)
        require(r["lost"] == 0 and r["duplicated"] == 0 and r["shed"] == 0, r)
        require(r["completed"] == r["num_queries"], r)
    print(f"live-mutation runtime rows conserve at worker counts {workers}")


CHECKERS = {
    SERVING_SCHEMA: check_serving,
    RUNTIME_SCHEMA: check_runtime,
}


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 1
    failed = False
    for path in argv[1:]:
        try:
            with open(path) as f:
                doc = json.load(f)
            schema = doc.get("schema")
            checker = CHECKERS.get(schema)
            if checker is None:
                raise SchemaError(
                    f"unknown schema tag {schema!r} (known: {sorted(CHECKERS)})")
            checker(doc)
            print(f"{path}: ok ({schema})")
        except (OSError, json.JSONDecodeError, SchemaError) as e:
            print(f"{path}: FAIL: {e}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
