//! `hub-skewed`: one `cla-hub` over TCP serving twelve generated tenants
//! behind room for six resident graphs.
//!
//! Requests come in a closed loop over `nproc` connections. About 90% of
//! them go to four hot tenants and the rest spread over eight cold ones;
//! the mix is points-to, alias and depend queries over a skewed
//! per-tenant pool of variables, so the result cache hits on some and
//! misses on others. About 1% of operations are writes: edit one tenant
//! file on disk, then send `reload`. Hot tenants exercise the resident
//! query path (json, result cache, sealed graph), cold tenants eviction and
//! snapshot rehydration, edits the incremental recompile, relink and
//! re-solve.
//!
//! Every reply is checked against a per-(tenant, program version) oracle:
//! the worklist solver over the same linked database. Replies of one
//! `(session, epoch)` must all come from one version, and that version
//! must be one the edit log allows at that epoch; the first query after an
//! edit must see the edit.

use crate::million::{generate, profile, CI_SMALL};
use crate::report::{median, peak_rss_mb, percentile, reset_peak_rss, Fnv, Report};
use crate::trace::Tracer;
use crate::Config;
use cla_cfront::{OsFs, PpOptions};
use cla_cladb::{write_object, Database, LinkSet};
use cla_core::{worklist, PointsTo, SolveOptions};
use cla_depend::{DependOptions, DependenceAnalysis};
use cla_hub::{dispatch, hub_serve, Hub, HubOptions, SessionSource, SessionSpec};
use cla_ir::{compile_file, LowerOptions};
use cla_serve::json::{obj, Value};
use cla_serve::{Client, Endpoint};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 12;
const HOT: usize = 4;
const CAPACITY: usize = 6;
/// Share of requests that go to the hot tenants.
const HOT_SHARE: f64 = 0.9;
/// Share of all operations that are edits.
const WRITE_SHARE: f64 = 0.01;
/// Variables per tenant pool, and how many of the hottest also serve as
/// depend targets.
const POOL: usize = 48;
const DEPEND_POOL: usize = 12;
/// Program versions an edit cycles through.
const VERSIONS: usize = 3;
/// Set-ups per run, before the closed loop and after it; `setup_s` is
/// their median, so its samples span the run as the queries do.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
/// The global every edit redirects.
const EDIT_TARGET: &str = "gp0";

/// What an edit appends to the tenant's first file: `gp0` gains a fresh
/// target, which flows on to everything that reads `gp0`.
fn edit_suffix(version: usize) -> String {
    format!(
        "\nint bench_edit_0, bench_edit_1, bench_edit_2;\n\
         void bench_edit(void) {{ {EDIT_TARGET} = &bench_edit_{version}; }}\n"
    )
}

fn session(t: usize) -> String {
    format!("t{t}")
}

// ---- inputs ---------------------------------------------------------------

struct Tenant {
    files: Vec<String>,
    /// The edited file and its generated text.
    edit_file: PathBuf,
    base_text: String,
    snap_dir: PathBuf,
    tree_hash: u64,
    loc: usize,
}

impl Tenant {
    /// Saves `version` of the edited file the way a careful editor does:
    /// write a temporary, then rename it over the file, so a rebuild that
    /// reads the file meanwhile sees the old text or the new, never a
    /// truncated one.
    fn write_version(&self, version: usize) -> Result<(), String> {
        let tmp = self.edit_file.with_extension("c.tmp");
        std::fs::write(&tmp, format!("{}{}", self.base_text, edit_suffix(version)))
            .and_then(|()| std::fs::rename(&tmp, &self.edit_file))
            .map_err(|e| format!("{}: {e}", self.edit_file.display()))
    }
}

/// Writes the twelve tenant trees. Tenants are `ci-small` trees at every
/// `--size`: the small self-check only shortens the run.
fn make_tenants(cfg: &Config, root: &Path) -> Result<Vec<Tenant>, String> {
    let p = profile(CI_SMALL);
    (0..TENANTS)
        .map(|t| {
            let dir = root.join(session(t));
            let tree = generate(&p, cfg.seed.wrapping_mul(1000).wrapping_add(t as u64), &dir)?;
            let edit_file = PathBuf::from(&tree.files[0]);
            let base_text = std::fs::read_to_string(&edit_file)
                .map_err(|e| format!("{}: {e}", edit_file.display()))?;
            let tenant = Tenant {
                files: tree.files.clone(),
                edit_file,
                base_text,
                snap_dir: root.join(format!("snap-{t}")),
                tree_hash: tree.gen.tree_hash,
                loc: tree.gen.loc,
            };
            tenant.write_version(0)?;
            Ok(tenant)
        })
        .collect()
}

/// A hub with every tenant opened at version 0 and fresh snapshots.
fn open_hub(tenants: &[Tenant]) -> Result<Arc<Hub>, String> {
    let hub = Arc::new(Hub::new(HubOptions {
        capacity: CAPACITY,
        ..HubOptions::default()
    }));
    for (t, tenant) in tenants.iter().enumerate() {
        tenant.write_version(0)?;
        let _ = std::fs::remove_dir_all(&tenant.snap_dir);
        hub.open(
            &session(t),
            SessionSpec {
                source: SessionSource::Files {
                    fs: Arc::new(OsFs),
                    files: tenant.files.clone(),
                    pp: PpOptions::default(),
                    lower: LowerOptions::default(),
                    lenient: false,
                },
                solve: SolveOptions::default(),
                snapshot_dir: Some(tenant.snap_dir.clone()),
                jobs: 1,
            },
        )
        .map_err(|e| format!("open {}: {e}", session(t)))?;
    }
    Ok(hub)
}

// ---- the oracle -----------------------------------------------------------

/// One program version of one tenant, solved by the worklist solver.
struct Solution {
    db: Database,
    pts: PointsTo,
}

impl Solution {
    /// Links exactly as a hub session does: every file in order into one
    /// `LinkSet`, program name `a.out`.
    fn build(tenant: &Tenant) -> Result<Solution, String> {
        let mut units = LinkSet::new();
        for f in &tenant.files {
            let (unit, _) = compile_file(&OsFs, f, &PpOptions::default(), &LowerOptions::default())
                .map_err(|e| format!("oracle compile {f}: {e}"))?;
            units.upsert(f.clone(), unit);
        }
        let (program, _) = units.link("a.out");
        let db = Database::open(write_object(&program)).map_err(|e| format!("oracle: {e}"))?;
        let pts = worklist::solve(&program);
        Ok(Solution { db, pts })
    }

    /// The union of the points-to sets of every object named `var`.
    fn points_to(&self, var: &str) -> Vec<u64> {
        let mut set: Vec<u64> = self
            .db
            .targets(var)
            .iter()
            .flat_map(|&o| self.pts.points_to(o).iter().map(|t| u64::from(t.0)))
            .collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// Answers the pool's queries (and the post-edit query of `gp0`) ahead
    /// of the run, so checking a reply costs the client a lookup. The
    /// solution itself is dropped, so the hub's memory figures do not
    /// carry it; `names` keeps the object names a snapshot of this version
    /// stores.
    fn answers(self, pool: &[String], names: bool) -> Result<Oracle, String> {
        let mut sets = HashMap::new();
        for var in pool.iter().map(String::as_str).chain([EDIT_TARGET]) {
            sets.insert(var.to_string(), self.points_to(var));
        }
        let mut depend = HashMap::new();
        let da = DependenceAnalysis::new(&self.db, &self.pts);
        for target in pool.iter().take(DEPEND_POOL) {
            let report = da
                .analyze(target, &DependOptions::default())
                .ok_or_else(|| format!("oracle: unknown depend target {target}"))?;
            let mut lines: Vec<(String, u64, u64)> = report
                .dependents()
                .iter()
                .map(|d| {
                    (
                        self.db.object(d.obj).name.clone(),
                        u64::from(d.cost.weak_links),
                        u64::from(d.cost.length),
                    )
                })
                .collect();
            lines.sort();
            depend.insert(target.clone(), lines);
        }
        let names = if names {
            self.db.objects().iter().map(|o| o.name.clone()).collect()
        } else {
            Vec::new()
        };
        Ok(Oracle {
            sets,
            depend,
            names,
            assigns: self.db.load_stats().assigns_in_file,
            relations: self.pts.relations(),
        })
    }
}

/// The answers of one program version of one tenant.
struct Oracle {
    /// Expected points-to answers (target ids, sorted) of the pool and of
    /// `gp0`.
    sets: HashMap<String, Vec<u64>>,
    /// Expected depend answers for the depend pool, sorted.
    depend: HashMap<String, Vec<(String, u64, u64)>>,
    /// Object names in id order, for versions an edit can produce.
    names: Vec<String>,
    assigns: u64,
    relations: usize,
}

impl Oracle {
    /// `*a` and `*b` may alias when some object named `a` and some named
    /// `b` share a target, i.e. when their unions meet.
    fn alias(&self, a: &str, b: &str) -> bool {
        let (sa, sb) = (&self.sets[a], &self.sets[b]);
        sa.iter().any(|t| sb.binary_search(t).is_ok())
    }

    /// Whether `reply` is this version's answer to `op`.
    fn matches(&self, op: &Op, reply: &Value) -> bool {
        match op {
            Op::PointsTo { var, .. } => {
                let got: Option<Vec<u64>> =
                    reply.get("targets").and_then(Value::as_arr).and_then(|ts| {
                        ts.iter()
                            .map(|t| t.get("id").and_then(Value::as_u64))
                            .collect()
                    });
                got.as_ref() == self.sets.get(var)
            }
            Op::Alias { a, b, .. } => {
                reply.get("alias").and_then(Value::as_bool) == Some(self.alias(a, b))
            }
            Op::Depend { target, .. } => {
                let got = reply.get("dependents").and_then(Value::as_arr).map(|ds| {
                    let mut lines: Vec<(String, u64, u64)> = ds
                        .iter()
                        .filter_map(|d| {
                            Some((
                                d.get("name")?.as_str()?.to_string(),
                                d.get("weak_links")?.as_u64()?,
                                d.get("length")?.as_u64()?,
                            ))
                        })
                        .collect();
                    lines.sort();
                    lines
                });
                got.as_ref() == self.depend.get(target)
            }
            Op::Edit { .. } => true,
        }
    }
}

/// Oracles per tenant and version (cold tenants are never edited, so
/// they only have version 0), plus each tenant's query pool.
struct Oracles {
    by_version: Vec<Vec<Oracle>>,
    pools: Vec<Vec<String>>,
}

impl Oracles {
    fn build(cfg: &Config, tenants: &[Tenant]) -> Result<Oracles, String> {
        let mut by_version = Vec::new();
        let mut pools = Vec::new();
        for (t, tenant) in tenants.iter().enumerate() {
            let versions = if t < HOT { VERSIONS } else { 1 };
            let mut vs = Vec::new();
            for v in 0..versions {
                tenant.write_version(v)?;
                vs.push(Solution::build(tenant)?);
            }
            tenant.write_version(0)?;
            let pool = query_pool(&vs[0], cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9));
            let answers = vs
                .into_iter()
                .map(|s| s.answers(&pool, t < HOT))
                .collect::<Result<_, _>>()?;
            by_version.push(answers);
            pools.push(pool);
        }
        Ok(Oracles { by_version, pools })
    }

    /// Bitmask of the versions whose answer `reply` is.
    fn versions_matching(&self, op: &Op, reply: &Value) -> u8 {
        let t = op.tenant();
        self.by_version[t]
            .iter()
            .enumerate()
            .filter(|(_, o)| o.matches(op, reply))
            .fold(0u8, |m, (v, _)| m | (1 << v))
    }
}

/// Points-to set sizes the pool spreads its variables over: powers of two
/// from 1 to 256 and up.
const SIZE_BUCKETS: usize = 9;

/// The tenant's query pool, hottest first: seeded picks that take the
/// set-size buckets (1, 2–3, 4–7, …, 256 and up) in turn. Reply size
/// drives a query's cost, and the tenants' own size distributions differ
/// widely from seed to seed; taking every size class in turn fixes the mix
/// of small and large answers while the seed still picks the variables.
/// `gp0`, whose set every edit changes, is queried after each edit instead.
fn query_pool(o: &Solution, seed: u64) -> Vec<String> {
    let mut buckets: Vec<Vec<&str>> = vec![Vec::new(); SIZE_BUCKETS];
    for name in o.db.target_names().filter(|n| *n != EDIT_TARGET) {
        let size = o.points_to(name).len();
        if size > 0 {
            let class = (usize::BITS - 1 - size.leading_zeros()) as usize;
            buckets[class.min(SIZE_BUCKETS - 1)].push(name);
        }
    }
    for b in &mut buckets {
        b.sort_unstable();
    }
    let mut rng = Rng(seed);
    let mut pool = Vec::new();
    for k in 0..POOL {
        // An empty class borrows from the nearest smaller one, then larger.
        let want = k % SIZE_BUCKETS;
        let Some(b) = (0..=want)
            .rev()
            .chain(want + 1..SIZE_BUCKETS)
            .find(|&b| !buckets[b].is_empty())
        else {
            break;
        };
        let pick = (rng.next() % buckets[b].len() as u64) as usize;
        pool.push(buckets[b][pick].to_string());
    }
    pool
}

// ---- the request sequence -------------------------------------------------

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Debug)]
enum Op {
    PointsTo {
        t: usize,
        var: String,
    },
    Alias {
        t: usize,
        a: String,
        b: String,
    },
    Depend {
        t: usize,
        target: String,
    },
    /// Write the next version of a hot tenant's file, then `reload`.
    Edit {
        t: usize,
    },
}

impl Op {
    fn tenant(&self) -> usize {
        match self {
            Op::PointsTo { t, .. }
            | Op::Alias { t, .. }
            | Op::Depend { t, .. }
            | Op::Edit { t } => *t,
        }
    }

    fn request(&self) -> Value {
        match self {
            Op::PointsTo { t, var } => obj([
                ("cmd", "points-to".into()),
                ("session", session(*t).into()),
                ("var", var.as_str().into()),
            ]),
            Op::Alias { t, a, b } => obj([
                ("cmd", "alias".into()),
                ("session", session(*t).into()),
                ("a", a.as_str().into()),
                ("b", b.as_str().into()),
            ]),
            Op::Depend { t, target } => obj([
                ("cmd", "depend".into()),
                ("session", session(*t).into()),
                ("target", target.as_str().into()),
            ]),
            Op::Edit { t } => obj([("cmd", "reload".into()), ("session", session(*t).into())]),
        }
    }
}

/// Requests are dealt in blocks of `BLOCK` with fixed counts: 10% to cold
/// tenants (in turn, so each misses the two cold slots and rehydrates)
/// and kinds in a 60/30/10 points-to/alias/depend ratio, in a seeded
/// order. Fixed counts keep the amount of rehydration and depend work the
/// same from run to run; the seed varies the order, the hot tenant of each
/// request and the variables.
const BLOCK: usize = 20;

/// One connection's deterministic operation stream. Only connection 0
/// edits, so each tenant's edits are totally ordered; an edit is always
/// followed by a points-to query of the edited global.
struct OpStream<'a> {
    rng: Rng,
    pools: &'a [Vec<String>],
    /// Slots left in the current block: (cold tenant?, kind).
    block: Vec<(bool, u8)>,
    next_cold: usize,
    /// Connection 0 edits once every `edit_every` operations (0 = never).
    edit_every: usize,
    issued: usize,
    edits: usize,
    pending: Option<Op>,
}

impl<'a> OpStream<'a> {
    fn new(seed: u64, conn: usize, conns: usize, pools: &'a [Vec<String>]) -> OpStream<'a> {
        OpStream {
            rng: Rng(seed ^ 0x5eed_0000 ^ (conn as u64).wrapping_mul(0x1000_0000_01b3)),
            pools,
            block: Vec::new(),
            next_cold: conn * 3,
            edit_every: if conn == 0 {
                (1.0 / (WRITE_SHARE * conns as f64)).round().max(1.0) as usize
            } else {
                0
            },
            issued: 0,
            edits: 0,
            pending: None,
        }
    }

    /// A pool index skewed towards the front (cubic), so a few variables
    /// repeat often and the long tail rarely does.
    fn pick(&mut self, n: usize) -> usize {
        ((self.rng.unit().powi(3) * n as f64) as usize).min(n - 1)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.rng.next() % (i as u64 + 1)) as usize);
        }
    }

    fn refill(&mut self) {
        let cold = (BLOCK as f64 * (1.0 - HOT_SHARE)).round() as usize;
        let mut colds: Vec<bool> = (0..BLOCK).map(|i| i < cold).collect();
        let mut kinds: Vec<u8> = (0..BLOCK)
            .map(|i| match i * 10 / BLOCK {
                0..=5 => 0,
                6..=8 => 1,
                _ => 2,
            })
            .collect();
        self.shuffle(&mut colds);
        self.shuffle(&mut kinds);
        self.block = colds.into_iter().zip(kinds).collect();
    }

    fn next_op(&mut self) -> Op {
        if let Some(op) = self.pending.take() {
            return op;
        }
        self.issued += 1;
        if self.edit_every > 0 && self.issued.is_multiple_of(self.edit_every) {
            let t = self.edits % HOT;
            self.edits += 1;
            self.pending = Some(Op::PointsTo {
                t,
                var: EDIT_TARGET.to_string(),
            });
            return Op::Edit { t };
        }
        if self.block.is_empty() {
            self.refill();
        }
        let (cold, kind) = self.block.pop().expect("a refilled block");
        let t = if cold {
            self.next_cold += 1;
            HOT + self.next_cold % (TENANTS - HOT)
        } else {
            (self.rng.next() % HOT as u64) as usize
        };
        let pool = &self.pools[t];
        match kind {
            0 => {
                let var = pool[self.pick(pool.len())].clone();
                Op::PointsTo { t, var }
            }
            1 => {
                let a = pool[self.pick(pool.len())].clone();
                let b = pool[self.pick(pool.len())].clone();
                Op::Alias { t, a, b }
            }
            _ => {
                let target = pool[self.pick(DEPEND_POOL.min(pool.len()))].clone();
                Op::Depend { t, target }
            }
        }
    }
}

// ---- checking -------------------------------------------------------------

/// One reply, reduced to what the consistency check needs.
struct Seen {
    t: usize,
    epoch: u64,
    versions: u8,
}

/// The edit log of one run: per tenant, (version written, reply epoch) in
/// order.
type EditLog = Vec<Vec<(usize, u64)>>;

/// Checks every reply against the oracle; returns the reduced record.
/// Busy refusals, errors and wrong answers all count as failed.
struct Checker<'a> {
    oracles: &'a Oracles,
    seen: Vec<Seen>,
    edits: EditLog,
    /// Current version per tenant, as written by this run's edits.
    version: Vec<usize>,
    busy: u64,
    cached: u64,
    queries: u64,
}

impl<'a> Checker<'a> {
    fn new(oracles: &'a Oracles) -> Checker<'a> {
        Checker {
            oracles,
            seen: Vec::new(),
            edits: vec![Vec::new(); TENANTS],
            version: vec![0; TENANTS],
            busy: 0,
            cached: 0,
            queries: 0,
        }
    }

    /// Folds in another connection's checker; `editor` marks the one
    /// that made the edits.
    fn merge(&mut self, other: Checker<'a>, editor: bool) {
        self.seen.extend(other.seen);
        if editor {
            self.edits = other.edits;
            self.version = other.version;
        }
        self.busy += other.busy;
        self.cached += other.cached;
        self.queries += other.queries;
    }

    /// The version an edit of `t` writes next.
    fn next_version(&self, t: usize) -> usize {
        (self.version[t] + 1) % VERSIONS
    }

    fn reply(&mut self, r: &mut Report, op: &Op, reply: &Value, after_edit: bool) {
        let t = op.tenant();
        if reply.get("ok").and_then(Value::as_bool) != Some(true) {
            if reply.get("busy").and_then(Value::as_bool) == Some(true) {
                self.busy += 1;
            }
            r.check(Err(format!("{op:?}: error reply {}", reply.encode())));
            return;
        }
        let Some(epoch) = reply.get("epoch").and_then(Value::as_u64) else {
            r.check(Err(format!("{op:?}: reply without epoch")));
            return;
        };
        if let Op::Edit { t } = op {
            let v = self.next_version(*t);
            let stale = self.edits[*t].last().is_some_and(|&(_, e)| epoch <= e);
            self.version[*t] = v;
            self.edits[*t].push((v, epoch));
            r.check(if stale {
                Err(format!("{op:?}: reload reply epoch {epoch} is not new"))
            } else {
                Ok(())
            });
            return;
        }
        self.queries += 1;
        if reply.get("cached").and_then(Value::as_bool) == Some(true) {
            self.cached += 1;
        }
        let versions = self.oracles.versions_matching(op, reply);
        let outcome = if versions == 0 {
            Err(format!(
                "{op:?}: answer matches no version: {}",
                reply.encode()
            ))
        } else if after_edit && versions & (1 << self.version[t]) == 0 {
            Err(format!("{op:?}: the first query after an edit missed it"))
        } else {
            Ok(())
        };
        r.check(outcome);
        self.seen.push(Seen { t, epoch, versions });
    }

    /// Replies of one (session, epoch) must share a version, and that
    /// version must be the one the last edit at or before the epoch wrote
    /// — or the next one, when a rebuild read the file between that
    /// edit's write and its reload.
    fn consistency(&self, r: &mut Report) {
        // Per (tenant, epoch): how many replies fit each set of versions.
        let mut by_epoch: BTreeMap<(usize, u64), BTreeMap<u8, usize>> = BTreeMap::new();
        for s in &self.seen {
            *by_epoch
                .entry((s.t, s.epoch))
                .or_default()
                .entry(s.versions)
                .or_default() += 1;
        }
        for (&(t, epoch), fits) in &by_epoch {
            let mask = fits.keys().fold(0xff, |m, v| m & v);
            let log = &self.edits[t];
            let k = log.iter().take_while(|(_, e)| *e <= epoch).count();
            let current = if k == 0 { 0 } else { log[k - 1].0 };
            let mut allowed = 1u8 << current;
            if let Some((next, _)) = log.get(k) {
                allowed |= 1 << next;
            }
            r.check(if mask & allowed != 0 {
                Ok(())
            } else {
                Err(format!(
                    "t{t} epoch {epoch}: replies fit versions {fits:?} (as bit masks), \
                     the edit log {log:?} allows {allowed:03b}"
                ))
            });
        }
    }
}

/// Queries every pool variable of every tenant in process and checks the
/// answers against the current versions. Returns a fingerprint of them.
fn final_sweep(hub: &Hub, ck: &mut Checker<'_>, r: &mut Report) -> u64 {
    let mut h = Fnv::new();
    for t in 0..TENANTS {
        for var in &ck.oracles.pools[t] {
            let op = Op::PointsTo {
                t,
                var: var.clone(),
            };
            let reply = dispatch(hub, &op.request().encode());
            let want = &ck.oracles.by_version[t][ck.version[t]];
            r.check(if want.matches(&op, &reply) {
                Ok(())
            } else {
                Err(format!("final {op:?}: {}", reply.encode()))
            });
            for &id in &want.sets[var] {
                h.u32(id as u32);
            }
            h.u32(u32::MAX);
        }
    }
    h.finish()
}

// ---- the closed loop over TCP ---------------------------------------------

struct Loop {
    /// Query and edit latencies in ms, in completion order.
    query_ms: Vec<f64>,
    edit_ms: Vec<f64>,
    wall_s: f64,
    /// Operations each connection completed (the replay replays these).
    done: Vec<usize>,
}

/// Runs the closed loop over TCP for `seconds`.
fn run_loop(
    cfg: &Config,
    seconds: f64,
    hub: &Arc<Hub>,
    tenants: &[Tenant],
    ck: &mut Checker<'_>,
    r: &mut Report,
) -> Result<Loop, String> {
    let handle = hub_serve(Arc::clone(hub), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = handle.addr().to_string();
    let conns = cfg.jobs;
    let oracles = ck.oracles;
    let start = Instant::now();
    // Each connection checks its own replies; only connection 0 edits, so
    // its checker carries the edit log and the current versions.
    type Conn<'o> = (Checker<'o>, Report, Vec<f64>, Vec<f64>);
    let results: Vec<Result<Conn<'_>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = addr.clone();
                s.spawn(move || -> Result<Conn<'_>, String> {
                    let mut client = Client::connect(&Endpoint::Tcp(addr))
                        .map_err(|e| format!("connect: {e}"))?;
                    let mut ops = OpStream::new(cfg.seed, c, conns, &oracles.pools);
                    let (mut ck, mut rep) = (Checker::new(oracles), Report::default());
                    let (mut q, mut w) = (Vec::new(), Vec::new());
                    let mut after_edit = false;
                    // Connection 0 also runs until it has made an edit, so
                    // every run measures at least one reload.
                    while start.elapsed().as_secs_f64() < seconds
                        || after_edit
                        || (c == 0 && w.is_empty())
                    {
                        let op = ops.next_op();
                        let req = op.request();
                        let is_edit = matches!(op, Op::Edit { .. });
                        let t0 = Instant::now();
                        if let Op::Edit { t } = op {
                            tenants[t].write_version(ck.next_version(t))?;
                        }
                        let reply = client.request(&req).map_err(|e| format!("request: {e}"))?;
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        if is_edit {
                            w.push(ms);
                        } else {
                            q.push(ms);
                        }
                        ck.reply(&mut rep, &op, &reply, after_edit);
                        after_edit = is_edit;
                    }
                    Ok((ck, rep, q, w))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    handle.stop();
    let mut out = Loop {
        query_ms: Vec::new(),
        edit_ms: Vec::new(),
        wall_s,
        done: Vec::new(),
    };
    for (c, res) in results.into_iter().enumerate() {
        let (conn_ck, rep, q, w) = res?;
        r.attempted += rep.attempted;
        r.failed += rep.failed;
        r.failures.extend(rep.failures);
        out.done.push(rep.attempted as usize);
        out.query_ms.extend(q);
        out.edit_ms.extend(w);
        ck.merge(conn_ck, c == 0);
    }
    Ok(out)
}

/// The run's set-up, `n` times: generate the tenant trees, then open the
/// hub (every tenant compiled, solved and snapshotted). Adds each set-up's
/// time to `times` and returns the tenants and hub of the last one.
fn setups(cfg: &Config, n: usize, times: &mut Vec<f64>) -> Result<(Vec<Tenant>, Arc<Hub>), String> {
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        let tenants = make_tenants(cfg, &cfg.work)?;
        let hub = open_hub(&tenants)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some((tenants, hub));
    }
    Ok(last.expect("at least one set-up"))
}

fn record_env(r: &mut Report, cfg: &Config, tenants: &[Tenant], oracles: &Oracles) {
    cfg.record(r);
    let mut h = Fnv::new();
    for t in tenants {
        h.bytes(&t.tree_hash.to_le_bytes());
    }
    r.record_str("tree_hash", &format!("{:016x}", h.finish()));
    r.record_num("loc", tenants.iter().map(|t| t.loc).sum::<usize>());
    r.record_num(
        "files",
        tenants.iter().map(|t| t.files.len()).sum::<usize>(),
    );
    let base = oracles.by_version.iter().map(|v| &v[0]);
    r.record_num("assignments", base.clone().map(|o| o.assigns).sum::<u64>());
    r.record_num("relations", base.map(|o| o.relations).sum::<usize>());
    r.record_num("tenants", TENANTS);
    r.record_num("hot_tenants", HOT);
    r.record_num("capacity", CAPACITY);
    r.record_num("threads", cfg.jobs);
    r.record_num("connections", cfg.jobs);
}

pub fn skewed(cfg: &Config) -> Result<Report, String> {
    let mut setup = Vec::new();
    let (tenants, hub) = setups(cfg, SETUPS_BEFORE, &mut setup)?;
    // Building the oracles rewrites each hot tenant's edited file through
    // every version and back to version 0, the text the hub opened.
    let oracles = Oracles::build(cfg, &tenants)?;
    let mut r = Report::default();
    record_env(&mut r, cfg, &tenants, &oracles);
    let mut ck = Checker::new(&oracles);
    if cfg.trace {
        return traced(cfg, &tenants, hub, ck, r);
    }

    reset_peak_rss();
    let l = run_loop(cfg, cfg.seconds, &hub, &tenants, &mut ck, &mut r)?;
    let peak = peak_rss_mb();
    ck.consistency(&mut r);
    final_sweep(&hub, &mut ck, &mut r);
    drop(hub);
    setups(cfg, SETUPS_AFTER, &mut setup)?;

    r.record_num("samples", l.query_ms.len());
    r.record_num("setup_samples", setup.len());
    r.record_num("edits", l.edit_ms.len());
    r.record_num("busy_refusals", ck.busy);
    r.named("query_p50_ms", median(&l.query_ms), "ms");
    r.named("query_p99_ms", percentile(&l.query_ms, 0.99), "ms");
    r.named("throughput_qps", l.query_ms.len() as f64 / l.wall_s, "1/s");
    r.named("reload_p50_ms", median(&l.edit_ms), "ms");
    r.named("peak_rss_mb", peak, "MB");
    r.metric("setup_s", median(&setup), "s");
    r.metric("op_p50_ms", median(&l.query_ms), "ms");
    r.metric("peak_rss_mb", peak, "MB");
    Ok(r)
}

// ---- the traced replay ----------------------------------------------------

/// What one in-process replay measured.
#[derive(Default)]
struct Replay {
    wall_s: f64,
    fingerprint: u64,
    /// Dispatch times in ms by how the hub served the call.
    resident_ms: Vec<f64>,
    rehydrate_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    query_dispatch_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    snap_load_ms: Vec<f64>,
    snap_save_ms: Vec<f64>,
    rehydrations: u64,
    evictions: u64,
    cached: u64,
    queries: u64,
    requests: u64,
}

fn rehydrations_and_evictions(hub: &Hub) -> (u64, u64) {
    (0..TENANTS).fold((0, 0), |(r, e), t| {
        let c = hub.tenant_counters(&session(t));
        (r + c.rehydrations, e + c.evictions)
    })
}

/// Runs `f`, inside a span when tracing, and returns its result with its
/// duration in ms.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    if let Some(t) = tracer.as_deref_mut() {
        t.enter(name);
    }
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(t) = tracer.as_deref_mut() {
        t.exit();
    }
    (out, ms)
}

/// Replays the loop's operations serially through `cla_hub::dispatch`,
/// interleaving the connections round-robin, on a freshly opened hub. The
/// same calls run with and without a tracer, so the difference between
/// the two is the tracing overhead.
fn replay(
    cfg: &Config,
    tenants: &[Tenant],
    oracles: &Oracles,
    done: &[usize],
    mut tracer: Option<&mut Tracer>,
    r: &mut Report,
) -> Result<Replay, String> {
    let hub = open_hub(tenants)?;
    let mut ck = Checker::new(oracles);
    let mut streams: Vec<OpStream<'_>> = (0..done.len())
        .map(|c| OpStream::new(cfg.seed, c, done.len(), &oracles.pools))
        .collect();
    let mut left = done.to_vec();
    let mut after_edit = vec![false; done.len()];
    let save_dir = cfg.work.join("snap-save");
    std::fs::create_dir_all(&save_dir).map_err(|e| format!("{}: {e}", save_dir.display()))?;
    let mut out = Replay::default();
    let mut request = 0u64;
    // Tenant counters live in the process-wide metrics registry and carry
    // over between hubs, so the replay reports deltas.
    let (rehydrations0, evictions0) = rehydrations_and_evictions(&hub);
    while left.iter().any(|&n| n > 0) {
        for c in 0..done.len() {
            if left[c] == 0 {
                continue;
            }
            left[c] -= 1;
            request += 1;
            let op = streams[c].next_op();
            let t = op.tenant();
            // The replay's wall time is the sum of the request bodies; the
            // answer check below runs outside it.
            let t0 = Instant::now();
            if let Some(tr) = tracer.as_deref_mut() {
                tr.set_request(request);
                tr.enter("request");
            }
            if let Op::Edit { t } = op {
                tenants[t].write_version(ck.next_version(t))?;
            }
            let line = op.request().encode();
            let (parsed, ms) = timed(&mut tracer, "serve.json.decode", || {
                cla_serve::json::parse(&line)
            });
            parsed.map_err(|e| format!("decode: {e}"))?;
            out.decode_ms.push(ms);
            let before = hub.tenant_counters(&session(t)).rehydrations;
            let (reply, ms) = timed(&mut tracer, "hub.dispatch", || dispatch(&hub, &line));
            let rehydrated = hub.tenant_counters(&session(t)).rehydrations > before;
            let (_, enc_ms) = timed(&mut tracer, "serve.json.encode", || reply.encode());
            out.encode_ms.push(enc_ms);
            match op {
                Op::Edit { .. } => {
                    out.reload_ms.push(ms);
                    // The reload saved a snapshot inside the dispatch;
                    // time the save of the same graph on its own.
                    let v = ck.next_version(t);
                    let sealed = hub
                        .with_session(&session(t), |s, _| s.snapshot().0)
                        .map_err(|e| format!("session: {e}"))?;
                    let names = &oracles.by_version[t][v].names;
                    let prov = cla_serve::object_provenance("a.out", 0, SolveOptions::default());
                    let path = save_dir.join(format!("t{t}.clasnap"));
                    let (saved, ms) = timed(&mut tracer, "snap.save", || {
                        cla_snap::save_snapshot(&path, &prov, &sealed, names)
                    });
                    saved.map_err(|e| format!("snapshot save: {e}"))?;
                    out.snap_save_ms.push(ms);
                }
                _ if rehydrated => out.rehydrate_ms.push(ms),
                _ => out.resident_ms.push(ms),
            }
            if !matches!(op, Op::Edit { .. }) {
                out.query_dispatch_ms.push(ms);
            }
            if rehydrated {
                let path = tenants[t].snap_dir.join(cla_snap::SNAPSHOT_FILE);
                let (loaded, ms) = timed(&mut tracer, "snap.load", || {
                    cla_snap::Snapshot::open(&path).and_then(|s| s.load_sealed())
                });
                loaded.map_err(|e| format!("snapshot load: {e}"))?;
                out.snap_load_ms.push(ms);
            }
            if let Some(tr) = tracer.as_deref_mut() {
                tr.exit();
            }
            out.wall_s += t0.elapsed().as_secs_f64();
            ck.reply(r, &op, &reply, after_edit[c]);
            after_edit[c] = matches!(op, Op::Edit { .. });
        }
    }
    out.requests = request;
    let (rehydrations, evictions) = rehydrations_and_evictions(&hub);
    out.rehydrations = rehydrations - rehydrations0;
    out.evictions = evictions - evictions0;
    ck.consistency(r);
    out.fingerprint = final_sweep(&hub, &mut ck, r);
    out.cached = ck.cached;
    out.queries = ck.queries;
    Ok(out)
}

fn traced(
    cfg: &Config,
    tenants: &[Tenant],
    hub: Arc<Hub>,
    mut ck: Checker<'_>,
    mut r: Report,
) -> Result<Report, String> {
    let oracles = ck.oracles;
    // The serial replays run about twice as long as the wire run they
    // repeat, so the wire run takes a quarter of the time and the three
    // together take about `--seconds`.
    let l = run_loop(cfg, cfg.seconds / 4.0, &hub, tenants, &mut ck, &mut r)?;
    ck.consistency(&mut r);
    let wire_fp = final_sweep(&hub, &mut ck, &mut r);
    let busy = ck.busy;
    drop(hub);

    let plain = replay(cfg, tenants, oracles, &l.done, None, &mut r)?;
    let mut tracer = Tracer::new();
    let traced = replay(cfg, tenants, oracles, &l.done, Some(&mut tracer), &mut r)?;
    for (what, fp) in [
        ("untraced replay", plain.fingerprint),
        ("traced replay", traced.fingerprint),
    ] {
        r.check(if fp == wire_fp {
            Ok(())
        } else {
            Err(format!(
                "{what} fingerprint {fp:016x} != the wire run's {wire_fp:016x}"
            ))
        });
    }

    let per_k = |n: u64| n as f64 * 1e3 / traced.requests.max(1) as f64;
    r.metric(
        "hub.dispatch.resident_ms",
        median(&traced.resident_ms),
        "ms",
    );
    r.metric("serve.json.decode_ms", median(&traced.decode_ms), "ms");
    r.metric("serve.json.encode_ms", median(&traced.encode_ms), "ms");
    r.metric(
        "serve.cache_hit_ratio",
        traced.cached as f64 / traced.queries.max(1) as f64,
        "ratio",
    );
    r.metric(
        "hub.transport_ms",
        median(&l.query_ms) - median(&plain.query_dispatch_ms),
        "ms",
    );
    r.metric(
        "hub.dispatch.rehydrate_p50_ms",
        median(&traced.rehydrate_ms),
        "ms",
    );
    r.metric(
        "hub.dispatch.rehydrate_p99_ms",
        percentile(&traced.rehydrate_ms, 0.99),
        "ms",
    );
    r.metric("snap.load_ms", median(&traced.snap_load_ms), "ms");
    r.metric(
        "hub.rehydrations_per_kreq",
        per_k(traced.rehydrations),
        "1/kreq",
    );
    r.metric("hub.evictions_per_kreq", per_k(traced.evictions), "1/kreq");
    let wire_ops: usize = l.done.iter().sum();
    r.metric(
        "hub.busy_frac",
        busy as f64 / wire_ops.max(1) as f64,
        "frac",
    );
    r.metric("serve.reload_ms", median(&traced.reload_ms), "ms");
    r.metric("snap.save_ms", median(&traced.snap_save_ms), "ms");
    r.record_num("replayed_ops", traced.requests);
    tracer.report(cfg, &mut r, traced.wall_s, plain.wall_s)?;
    Ok(r)
}
