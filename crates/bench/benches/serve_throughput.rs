//! Multi-client throughput of the query server over its sealed snapshot.
//!
//! Two experiments:
//!
//! 1. **Socket aggregate throughput** — N client threads connect to a real
//!    Unix-socket server and hammer it with mixed points-to / alias /
//!    depend queries; reported as aggregate queries/second per client
//!    count. This exercises the full production path: framing, JSON,
//!    result cache, sealed snapshot.
//!
//! 2. **Serialized vs lock-free query core** — the same query workload run
//!    in-process against (a) the old design, a `Mutex<Warm>` every query
//!    must lock, and (b) the sealed snapshot read from `&self` with no
//!    lock at all. The speedup column at 8 threads is the headline number:
//!    the sealed path scales with cores while the mutex path is stuck at
//!    one, so it should exceed 4x on any machine with >= 4 cores.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cla_cfront::{MemoryFs, PpOptions};
use cla_cladb::{link, write_object, Database};
use cla_core::{SealedGraph, SolveOptions, Warm};
use cla_ir::{compile_file, LowerOptions, ObjId};
use cla_serve::{serve, Session, SessionSource, SessionSpec};
use cla_workload::{by_name, generate, GenOptions};

static SOCKET_SEQ: AtomicU32 = AtomicU32::new(0);

fn temp_socket() -> std::path::PathBuf {
    let n = SOCKET_SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("cla-serve-bench-{}-{n}.sock", std::process::id()))
}

/// The shared benchmark program (vortex profile at a small fixed scale, so
/// the bench measures the query path, not the solver).
fn sample_fs() -> (MemoryFs, Vec<String>) {
    let spec = by_name("vortex").unwrap();
    let w = generate(
        spec,
        &GenOptions {
            scale: 0.02,
            files: 4,
            ..Default::default()
        },
    );
    let mut fs = MemoryFs::new();
    for (p, c) in &w.files {
        fs.add(p.clone(), c.clone());
    }
    let files = w.source_files().iter().map(|f| f.to_string()).collect();
    (fs, files)
}

fn sample_session(fs: &MemoryFs, files: &[String]) -> Session {
    Session::open(&SessionSpec {
        source: SessionSource::Files {
            fs: Arc::new(fs.clone()),
            files: files.to_vec(),
            pp: PpOptions::default(),
            lower: LowerOptions::default(),
            lenient: false,
        },
        solve: SolveOptions::default(),
        snapshot_dir: None,
        jobs: 1,
    })
    .unwrap()
}

/// Queryable pointer variables: names the wire protocol resolves.
fn query_names(session: &Session) -> Vec<String> {
    let mut names: Vec<String> = session
        .pointer_variables()
        .into_iter()
        .filter(|n| session.points_to(n).is_ok())
        .collect();
    names.truncate(64);
    assert!(names.len() >= 8, "workload too small to benchmark");
    names
}

/// One client's slice of the mixed workload, as raw request lines.
fn request(names: &[String], i: usize) -> String {
    let name = &names[i % names.len()];
    match i % 16 {
        // Depend walks are the heavyweight query; keep them a steady
        // minority like an interactive tool would.
        0 => format!("{{\"cmd\":\"depend\",\"target\":\"{name}\"}}"),
        n if n % 3 == 1 => {
            let other = &names[(i / 3 + 7) % names.len()];
            format!("{{\"cmd\":\"alias\",\"a\":\"{name}\",\"b\":\"{other}\"}}")
        }
        _ => format!("{{\"cmd\":\"points-to\",\"var\":\"{name}\"}}"),
    }
}

/// Aggregate queries/second with `clients` socket clients.
fn socket_qps(session: &Arc<Session>, names: &[String], clients: usize, per_client: usize) -> f64 {
    let server = serve(Arc::clone(session), None, &temp_socket()).unwrap();
    let path = server.path().to_path_buf();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let path = &path;
            scope.spawn(move || {
                let stream = UnixStream::connect(path).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                for i in 0..per_client {
                    let req = request(names, c * per_client + i);
                    writer.write_all(req.as_bytes()).unwrap();
                    writer.write_all(b"\n").unwrap();
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    assert!(
                        line.contains("\"ok\":true"),
                        "query failed: {req} -> {line}"
                    );
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    server.stop();
    (clients * per_client) as f64 / secs
}

/// The in-process core-path comparison: every thread sums points-to sets
/// for a fixed id schedule, either through a shared `Mutex<Warm>` (the old
/// one-at-a-time design) or straight off the sealed snapshot.
fn core_qps(run: &(dyn Fn(usize) -> u64 + Sync), threads: usize, per_thread: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut acc = 0u64;
                for i in 0..per_thread {
                    acc ^= run(t * per_thread + i);
                }
                black_box(acc);
            });
        }
    });
    (threads * per_thread) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    cla_bench::header("serve throughput: N clients over one sealed snapshot");

    let (fs, files) = sample_fs();
    let session = Arc::new(sample_session(&fs, &files));
    let names = query_names(&session);
    println!(
        "program: {} files, {} queryable pointer variables\n",
        files.len(),
        names.len()
    );

    println!("socket aggregate throughput (mixed points-to/alias/depend):");
    let per_client = 4000;
    let mut base = 0.0;
    for clients in [1usize, 2, 4, 8] {
        let qps = socket_qps(&session, &names, clients, per_client);
        if clients == 1 {
            base = qps;
        }
        println!(
            "  {clients} client(s): {:>10} queries/s   ({:.2}x vs 1 client)",
            cla_bench::fmt_count(qps as u64),
            qps / base
        );
    }

    // The core-path comparison strips away sockets and JSON so the locking
    // discipline is the only variable.
    let units: Vec<_> = files
        .iter()
        .map(|f| {
            compile_file(&fs, f, &PpOptions::default(), &LowerOptions::default())
                .unwrap()
                .0
        })
        .collect();
    let (program, _) = link(&units, "bench");
    let db = Database::open(write_object(&program)).unwrap();
    let sealed: SealedGraph = Warm::from_database(&db, SolveOptions::default()).seal();
    let ids: Vec<ObjId> = (0..sealed.object_count() as u32)
        .map(ObjId)
        .filter(|&o| !sealed.points_to(o).is_empty())
        .collect();
    let warm = Mutex::new(Warm::from_database(&db, SolveOptions::default()));

    let serialized = |i: usize| -> u64 {
        let id = ids[i % ids.len()];
        warm.lock()
            .unwrap()
            .points_to(id)
            .iter()
            .map(|o| u64::from(o.0))
            .sum()
    };
    let lock_free = |i: usize| -> u64 {
        let id = ids[i % ids.len()];
        sealed.points_to(id).iter().map(|o| u64::from(o.0)).sum()
    };

    println!("\nquery core: Mutex<Warm> (old) vs sealed snapshot (new):");
    let per_thread = 400_000;
    for threads in [1usize, 2, 4, 8] {
        let old = core_qps(&serialized, threads, per_thread);
        let new = core_qps(&lock_free, threads, per_thread);
        println!(
            "  {threads} thread(s): mutex {:>11} q/s   sealed {:>12} q/s   speedup {:>6.2}x",
            cla_bench::fmt_count(old as u64),
            cla_bench::fmt_count(new as u64),
            new / old
        );
    }
}
