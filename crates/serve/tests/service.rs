//! End-to-end tests for the campaign service: a real server on a real
//! socket, real HTTP round trips, and the three contracts the subsystem
//! exists for — served results byte-identical to one-shot output,
//! identical resubmission served entirely from cache, and a poisoned
//! submission rejected before the queue, which keeps serving. Then the
//! service's timing contracts: a cached job never waits for a worker,
//! nothing on the request path polls, and a drain ends `run()` at once.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tc_serve::{ServeOptions, ServeStats, Server, Submission};
use tc_system::{run_to_json, Campaign, ExperimentPoint, RunOptions};
use tc_types::{AdversarySpec, FaultSpec, JobPriority, ProtocolKind, SystemConfig};
use tc_workloads::WorkloadProfile;

fn tiny_options() -> RunOptions {
    RunOptions {
        ops_per_node: 250,
        max_cycles: 20_000_000,
        ..RunOptions::default()
    }
}

fn small_points() -> Vec<ExperimentPoint> {
    [
        ProtocolKind::TokenB,
        ProtocolKind::Directory,
        ProtocolKind::Hammer,
    ]
    .iter()
    .map(|&protocol| {
        let mut config = SystemConfig::isca03_default()
            .with_nodes(4)
            .with_protocol(protocol)
            .with_seed(7);
        config.l2.size_bytes = 256 * 1024;
        ExperimentPoint::new(
            format!("{protocol}-served"),
            config,
            WorkloadProfile::specjbb(),
        )
    })
    .collect()
}

fn submission(points: Vec<ExperimentPoint>) -> Submission {
    Submission {
        priority: JobPriority::Normal,
        options: tiny_options(),
        points,
    }
}

/// One-shot reference lines: what `tc-bench --runs-json` would write.
fn one_shot_lines(points: Vec<ExperimentPoint>) -> Vec<String> {
    Campaign::new(points)
        .options(tiny_options())
        .threads(2)
        .run()
        .runs
        .iter()
        .map(|run| format!("{}\n", run_to_json(&run.label, &run.report)))
        .collect()
}

fn start_server(options: ServeOptions) -> (String, JoinHandle<ServeStats>) {
    let server = Server::bind(options).expect("bind on an ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn one_worker() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_path: None,
    }
}

/// A cold job that keeps one worker busy for over half a second in a
/// release build (several seconds in a debug one): `LONG_JOB_POINTS`
/// 16-node points, every seed new to the cache.
const LONG_JOB_POINTS: usize = 24;

fn long_job() -> Submission {
    let points = (0..LONG_JOB_POINTS)
        .map(|i| {
            let config = SystemConfig::isca03_default()
                .with_nodes(16)
                .with_seed(1000 + i as u64);
            ExperimentPoint::new(format!("long-{i}"), config, WorkloadProfile::oltp())
        })
        .collect();
    Submission {
        priority: JobPriority::Normal,
        options: RunOptions {
            ops_per_node: 400,
            max_cycles: 200_000_000,
            ..RunOptions::default()
        },
        points,
    }
}

/// Submits [`long_job`] from a thread of its own and returns once its first
/// run line has arrived, that is, with the job running on a worker and most
/// of its points still to do. The thread returns the job's outcome.
fn start_long_job(addr: &str) -> JoinHandle<tc_serve::SubmitOutcome> {
    let (first_line, started) = mpsc::channel();
    let addr = addr.to_string();
    let client = std::thread::spawn(move || {
        tc_serve::submit(&addr, &long_job(), |_| {
            let _ = first_line.send(());
        })
        .expect("the long job")
    });
    started
        .recv_timeout(Duration::from_secs(120))
        .expect("the long job streams a first line");
    client
}

#[test]
fn served_results_are_byte_identical_and_resubmission_hits_the_cache() {
    let cache_dir = std::env::temp_dir().join(format!("tc-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&cache_dir).unwrap();
    let cache_path = cache_dir.join("results.snap");
    let (addr, handle) = start_server(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_path: Some(cache_path.clone()),
    });

    let expected = one_shot_lines(small_points());

    // First submission: everything simulated, streamed lines byte-identical
    // to the one-shot renderer's output.
    let mut lines = Vec::new();
    let outcome = tc_serve::submit(&addr, &submission(small_points()), |line| {
        lines.push(format!("{line}\n"));
    })
    .expect("first submission");
    assert_eq!(lines, expected);
    assert_eq!(outcome.points, 3);
    assert_eq!(outcome.ran, 3);
    assert_eq!(outcome.cache_hits, 0);

    // Second, identical submission: served entirely from cache, still
    // byte-identical.
    let mut cached_lines = Vec::new();
    let outcome = tc_serve::submit(&addr, &submission(small_points()), |line| {
        cached_lines.push(format!("{line}\n"));
    })
    .expect("second submission");
    assert_eq!(cached_lines, expected);
    assert_eq!(outcome.ran, 0);
    assert_eq!(outcome.cache_hits, 3);

    // Same physics under different labels: still all cache hits, and the
    // served lines carry the *new* labels.
    let relabeled: Vec<ExperimentPoint> = small_points()
        .into_iter()
        .map(|mut p| {
            p.label = format!("renamed-{}", p.label);
            p
        })
        .collect();
    let mut renamed_lines = Vec::new();
    let outcome = tc_serve::submit(&addr, &submission(relabeled), |line| {
        renamed_lines.push(line.to_string());
    })
    .expect("relabeled submission");
    assert_eq!(outcome.ran, 0);
    assert_eq!(outcome.cache_hits, 3);
    for (line, expected) in renamed_lines.iter().zip(&expected) {
        assert!(line.contains("\"label\":\"renamed-"), "{line}");
        // Identical except for the label field.
        let strip = |s: &str| {
            let rest = s.split_once(",\"protocol\"").unwrap().1.to_string();
            rest
        };
        assert_eq!(strip(line), strip(expected.trim_end()));
    }

    // The status page knows about the jobs and the cache.
    let status = tc_serve::status(&addr).expect("status");
    assert!(status.contains("job-1"), "{status}");
    assert!(status.contains("job-3"), "{status}");
    assert!(status.contains("cache: 3 entries"), "{status}");

    tc_serve::shutdown(&addr).expect("shutdown");
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.jobs_completed, 3);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.points_run, 3);
    assert_eq!(stats.points_cached, 6);
    assert_eq!(stats.cache_entries, 3);

    // A restarted server restores the persisted cache: the same submission
    // is served without simulating anything.
    let (addr, handle) = start_server(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_path: Some(cache_path),
    });
    let mut restored_lines = Vec::new();
    let outcome = tc_serve::submit(&addr, &submission(small_points()), |line| {
        restored_lines.push(format!("{line}\n"));
    })
    .expect("post-restart submission");
    assert_eq!(outcome.ran, 0);
    assert_eq!(outcome.cache_hits, 3);
    assert_eq!(restored_lines, expected);
    tc_serve::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&cache_dir).ok();
}

/// A served run has no checkpoint sink, so a checkpoint cadence is not part
/// of the submission wire: a body that carries one is refused at that
/// member, before it is queued, and the same body without it runs.
#[test]
fn a_checkpoint_cadence_on_the_wire_is_refused_as_an_unknown_member() {
    let (addr, handle) = start_server(one_worker());
    let plain = submission(small_points()).to_json();
    let cadenced = plain.replacen("\"points\":", "\"checkpoint_every\":5000,\"points\":", 1);
    assert_ne!(cadenced, plain);
    let err = tc_serve::submit_json(&addr, &cadenced, |_| {}).expect_err("must reject");
    assert!(
        err.message
            .contains("(400): unknown member (field: checkpoint_every)"),
        "{err}"
    );
    let outcome = tc_serve::submit_json(&addr, &plain, |_| {}).expect("the plain submission");
    assert_eq!((outcome.ran, outcome.cache_hits), (3, 0));
    tc_serve::shutdown(&addr).expect("shutdown");
    assert_eq!(handle.join().expect("server thread").jobs_failed, 0);
}

/// A fault spec outside a point's protocol contract is refused before the
/// queue with a 400 naming the field and the protocol: Snooping tolerates no
/// fault class, so a reorder window is not silently gated away or run.
#[test]
fn faults_outside_a_protocols_contract_are_refused_with_a_400() {
    let (addr, handle) = start_server(one_worker());
    let mut points = small_points();
    points[1].config = points[1]
        .config
        .clone()
        .with_protocol(ProtocolKind::Snooping);
    let plain = submission(points).to_json();
    assert!(plain.contains("\"protocol\":\"Snooping\""), "{plain}");
    let own = plain.replacen("\"faults\":\"none\"}", "\"faults\":\"reorder=2\"}", 2);
    let err = tc_serve::submit_json(&addr, &own, |_| {}).expect_err("must reject");
    assert!(err.message.contains("(400)"), "{err}");
    assert!(
        err.message.contains("Snooping does not tolerate reorder"),
        "{err}"
    );
    assert!(err.message.contains("(field: points[1].faults)"), "{err}");
    // The same spec campaign-wide is refused at the Snooping point too.
    let wide = plain.replacen("\"faults\":\"none\"", "\"faults\":\"reorder=2\"", 1);
    let err = tc_serve::submit_json(&addr, &wide, |_| {}).expect_err("must reject");
    assert!(err.message.contains("(400): Snooping"), "{err}");
    assert!(err.message.contains("(field: faults)"), "{err}");
    let outcome = tc_serve::submit_json(&addr, &plain, |_| {}).expect("the plain submission");
    assert_eq!((outcome.ran, outcome.cache_hits), (3, 0));
    tc_serve::shutdown(&addr).expect("shutdown");
    assert_eq!(handle.join().expect("server thread").jobs_failed, 0);
}

/// The adversary crosses the same boundary: one outside a point's contract,
/// or one armed with the test-only arbiter sabotage, is a 400 at
/// `adversary`, and nothing runs.
#[test]
fn adversaries_outside_a_contract_or_sabotaged_are_refused_with_a_400() {
    let (addr, handle) = start_server(one_worker());
    let mut points = small_points();
    points[1].config = points[1]
        .config
        .clone()
        .with_protocol(ProtocolKind::Snooping);
    let mut snooping = submission(points);
    snooping.options.adversary = AdversarySpec::parse("reorder=2,seed=3").unwrap();
    let mut sabotaged = submission(small_points());
    sabotaged.options.adversary = AdversarySpec::none().with_victim(1, 0).with_sabotage();
    for (sub, reason) in [
        (snooping, "Snooping does not tolerate reorder"),
        (sabotaged, "sabotage is a test-only oracle trigger"),
    ] {
        let err = tc_serve::submit_json(&addr, &sub.to_json(), |_| {}).expect_err("must reject");
        assert!(err.message.contains("(400)"), "{err}");
        assert!(err.message.contains(reason), "{err}");
        assert!(err.message.contains("(field: adversary)"), "{err}");
    }
    tc_serve::shutdown(&addr).expect("shutdown");
    let stats = handle.join().expect("server thread");
    assert_eq!((stats.jobs_failed, stats.points_run), (0, 0));
}

#[test]
fn poisoned_submissions_are_rejected_and_the_queue_keeps_serving() {
    let (addr, handle) = start_server(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_path: None,
    });

    // A bad workload name is rejected with a structured, field-addressed
    // error before it reaches the queue.
    let bad_workload = submission(small_points())
        .to_json()
        .replace("\"SPECjbb\"", "\"notaworkload\"");
    let err = tc_serve::submit_json(&addr, &bad_workload, |_| {}).expect_err("must reject");
    assert!(err.message.contains("notaworkload"), "{err}");
    assert!(err.message.contains("workload"), "{err}");

    // So is a bad protocol name.
    let bad_protocol = submission(small_points())
        .to_json()
        .replace("\"Hammer\"", "\"Sledgehammer\"");
    let err = tc_serve::submit_json(&addr, &bad_protocol, |_| {}).expect_err("must reject");
    assert!(err.message.contains("Sledgehammer"), "{err}");

    // So is a misspelt member, which used to run as the default it hid.
    let misspelt = submission(small_points())
        .to_json()
        .replacen("\"priority\"", "\"priorty\"", 1);
    let err = tc_serve::submit_json(&addr, &misspelt, |_| {}).expect_err("must reject");
    assert!(
        err.message
            .contains("(400): unknown member (field: priorty)"),
        "{err}"
    );

    // And plain JSON garbage.
    let err = tc_serve::submit_json(&addr, "{not json", |_| {}).expect_err("must reject");
    assert!(err.message.contains("invalid JSON"), "{err}");

    // So is a configuration the engine could not build (a cache geometry
    // that does not divide into sets): it used to pass validation and
    // panic inside a worker; now it never reaches the queue. What a panic
    // inside a worker does to its job is pinned by the server's unit tests.
    let mut poisoned = small_points();
    poisoned[1].config.l1.size_bytes = 192; // 3 lines, 4-way: indivisible
    let err = tc_serve::submit(&addr, &submission(poisoned), |_| {}).expect_err("must reject");
    assert!(err.message.contains("points[1].config"), "{err}");
    assert!(err.message.contains("l1.size_bytes"), "{err}");

    // And a processor with no MSHR, which used to validate, run to zero
    // operations with no violation, and be cached as a clean result.
    let mut no_mshrs = small_points();
    no_mshrs[0].config.processor.max_outstanding_misses = 0;
    let err = tc_serve::submit(&addr, &submission(no_mshrs), |_| {}).expect_err("must reject");
    assert!(err.message.contains("(400)"), "{err}");
    assert!(err.message.contains("points[0].config"), "{err}");
    assert!(
        err.message.contains("processor.max_outstanding_misses"),
        "{err}"
    );

    // And zero run bounds: `max_cycles: 0` used to stop after one event and
    // be cached as a clean result, `livelock_events_budget: 0` to report a
    // livelock that never happened.
    for (field, options) in [
        (
            "max_cycles",
            RunOptions {
                max_cycles: 0,
                ..tiny_options()
            },
        ),
        (
            "livelock_events_budget",
            RunOptions {
                livelock_events_budget: 0,
                ..tiny_options()
            },
        ),
    ] {
        let mut zeroed = submission(small_points());
        zeroed.options = options;
        let err = tc_serve::submit(&addr, &zeroed, |_| {}).expect_err("must reject");
        assert!(
            err.message
                .contains(&format!("(400): must be at least 1 (field: {field})")),
            "{err}"
        );
    }

    // And a node count whose routes the fabric could not allocate: with
    // one-line caches nothing else bounds it, and building it used to abort
    // the whole server.
    let mut huge = small_points();
    let config = &mut huge[2].config;
    for cache in [&mut config.l1, &mut config.l2] {
        cache.size_bytes = 64;
        cache.associativity = 1;
    }
    *config = config.clone().with_nodes(4096);
    let err = tc_serve::submit(&addr, &submission(huge), |_| {}).expect_err("must reject");
    assert!(err.message.contains("(400)"), "{err}");
    assert!(err.message.contains("points[2].config"), "{err}");
    assert!(err.message.contains("num_nodes"), "{err}");

    // The queue is still serving: a good submission right after runs fine.
    let mut lines = Vec::new();
    let outcome = tc_serve::submit(&addr, &submission(small_points()), |line| {
        lines.push(format!("{line}\n"));
    })
    .expect("queue must keep serving after a poisoned job");
    assert_eq!(outcome.ran + outcome.cache_hits, 3);
    assert_eq!(lines.len(), 3);

    tc_serve::shutdown(&addr).expect("shutdown");
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.jobs_completed, 1);

    // Draining servers refuse new work with a 503.
    // (The server has already exited; nothing to assert here beyond join.)
}

#[test]
fn priorities_and_streaming_hold_under_concurrent_submissions() {
    let (addr, handle) = start_server(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_path: None,
    });

    // Four concurrent submissions, mixed priorities, overlapping points.
    let mut clients = Vec::new();
    for (i, priority) in [
        JobPriority::Low,
        JobPriority::High,
        JobPriority::Normal,
        JobPriority::High,
    ]
    .into_iter()
    .enumerate()
    {
        let addr = addr.clone();
        clients.push(std::thread::spawn(move || {
            let mut sub = submission(small_points());
            sub.priority = priority;
            // Give two of the jobs a distinct seed so there is real work
            // beyond the shared points.
            if i % 2 == 0 {
                for p in &mut sub.points {
                    p.config.seed = 100 + i as u64;
                }
            }
            let mut count = 0usize;
            let outcome = tc_serve::submit(&addr, &sub, |_| count += 1).expect("submission");
            assert_eq!(count, 3);
            assert_eq!(outcome.ran + outcome.cache_hits, 3);
            outcome
        }));
    }
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    assert_eq!(outcomes.len(), 4);

    tc_serve::shutdown(&addr).expect("shutdown");
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.jobs_completed, 4);
    // Every point was accounted for exactly once, run or served. (The two
    // identical-physics jobs only dedup when one *finishes* before the
    // other starts — with two workers that is a race, so no stronger claim
    // here; sequential dedup is pinned by the byte-identity test.)
    assert_eq!(stats.points_run + stats.points_cached, 12, "{stats:?}");

    // Per-point faults ride along and key the cache correctly.
    let (addr, handle) = start_server(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_path: None,
    });
    let mut faulted = submission(small_points());
    faulted.points[0] = faulted.points[0]
        .clone()
        .with_faults(FaultSpec::parse("drop=0.0001,seed=5").unwrap());
    let outcome = tc_serve::submit(&addr, &faulted, |_| {}).expect("faulted submission");
    assert_eq!(outcome.ran, 3);
    let outcome = tc_serve::submit(&addr, &faulted, |_| {}).expect("faulted resubmission");
    assert_eq!(outcome.cache_hits, 3);
    tc_serve::shutdown(&addr).expect("shutdown");
    handle.join().expect("server thread");
}

/// A tripwire for any wait on the request path: the work behind a hit or a
/// status page is well under a millisecond, while behind an accept loop that
/// polls every 25 ms each request of a closed loop waits out a whole sleep.
/// The lower quartile is what is bounded, not the median: the other tests
/// of this binary simulate on every core meanwhile, and that may delay many
/// of the samples, but a poll delays all of them.
#[test]
fn hits_and_status_pages_are_answered_in_well_under_a_poll_interval() {
    const SAMPLES: usize = 21;
    const LIMIT_MS: f64 = 10.0;
    let (addr, handle) = start_server(one_worker());
    let body = submission(small_points()).to_json();
    tc_serve::submit_json(&addr, &body, |_| {}).expect("cold submission");

    let quartile_ms = |request: &dyn Fn()| {
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let began = Instant::now();
                request();
                began.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[SAMPLES / 4]
    };
    let hit_ms = quartile_ms(&|| {
        let outcome = tc_serve::submit_json(&addr, &body, |_| {}).expect("cached submission");
        assert_eq!(outcome.ran, 0);
    });
    let status_ms = quartile_ms(&|| {
        tc_serve::status(&addr).expect("status");
    });
    assert!(
        hit_ms < LIMIT_MS,
        "a quarter of the all-hit jobs took {hit_ms:.2} ms or less"
    );
    assert!(
        status_ms < LIMIT_MS,
        "a quarter of the /status calls took {status_ms:.2} ms or less"
    );

    tc_serve::shutdown(&addr).expect("shutdown");
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.jobs_completed, 1 + SAMPLES as u64);
    assert_eq!(stats.points_cached, 3 * SAMPLES as u64);
}

/// `/shutdown` on an idle server wakes the accept loop itself — also when
/// the server is bound to an unspecified address, where the wake-up has to
/// go to the loopback address of the same family.
#[test]
fn an_idle_server_drains_at_once_on_any_bind_address() {
    for (bind, loopback) in [
        ("127.0.0.1:0", "127.0.0.1"),
        ("0.0.0.0:0", "127.0.0.1"),
        ("[::]:0", "[::1]"),
    ] {
        let server = match Server::bind(ServeOptions {
            addr: bind.to_string(),
            ..one_worker()
        }) {
            Ok(server) => server,
            // A host without IPv6 has nothing to drain there.
            Err(_) if bind.starts_with('[') => continue,
            Err(e) => panic!("bind {bind}: {e}"),
        };
        let port = server.local_addr().expect("bound address").port();
        let addr = format!("{loopback}:{port}");
        let (returned, drained) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let stats = server.run().expect("server run");
            let _ = returned.send(());
            stats
        });
        tc_serve::status(&addr).expect("status");

        tc_serve::shutdown(&addr).expect("shutdown");
        drained
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("run() still going 1 s after /shutdown on {bind}"));
        let stats = handle.join().expect("server thread");
        assert_eq!(stats.jobs_completed, 0);
    }
}

/// `/shutdown` with a job on a worker: the job streams to its trailer,
/// whoever submits meanwhile is told 503, and the worker that finishes the
/// job ends `run()`. A job that was all hits is in the lifetime counters
/// like any other, and served the cold job's bytes.
#[test]
fn a_drain_lets_the_running_job_finish_and_refuses_new_ones() {
    let (addr, handle) = start_server(one_worker());
    let mut cold_lines = Vec::new();
    tc_serve::submit(&addr, &submission(small_points()), |line| {
        cold_lines.push(line.to_string());
    })
    .expect("cold submission");
    let mut hit_lines = Vec::new();
    let outcome = tc_serve::submit(&addr, &submission(small_points()), |line| {
        hit_lines.push(line.to_string());
    })
    .expect("cached submission");
    assert_eq!((outcome.ran, outcome.cache_hits), (0, 3));
    assert_eq!(hit_lines, cold_lines, "a hit serves the cold job's bytes");

    let long = start_long_job(&addr);
    tc_serve::shutdown(&addr).expect("shutdown");
    // Cached or not, nothing new is taken on.
    let refused = tc_serve::submit(&addr, &submission(small_points()), |_| {})
        .expect_err("a draining server takes no submissions");
    assert!(refused.message.contains("503"), "{refused}");
    assert!(refused.message.contains("draining"), "{refused}");

    let outcome = long.join().expect("long job's client");
    assert_eq!((outcome.ran, outcome.cache_hits), (LONG_JOB_POINTS, 0));
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.jobs_completed, 3);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.points_run, 3 + LONG_JOB_POINTS as u64);
    assert_eq!(stats.points_cached, 3);
}
