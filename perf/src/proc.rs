//! Process accounting without the `libc` crate: everything comes from
//! `/proc`.
//!
//! * **CPU** — `cutime + cstime` of `/proc/self/stat`, read before the
//!   spawn and after the wait. The kernel adds a child's user and system
//!   time, and that of every descendant the child itself waited for, to
//!   these fields when the child is reaped, so `palaunch`'s ranks are
//!   covered. Resolution is one clock tick (10 ms).
//! * **Peak RSS** — `VmHWM` of `/proc/<pid>/status`, sampled while the
//!   command runs (at most 20 times a second: the ranks own both cores)
//!   for the child and, for launchers, every descendant
//!   found by walking the `ppid` column of `/proc/*/stat`. `VmHWM` is
//!   itself a high-water mark, so a coarse poll loses only what a
//!   process grew after its last sample.
//! * **Timeouts and clean-up** — every command runs in its own process
//!   group; a command past its deadline, or one still alive when its
//!   guard drops (including during a panic), has the whole group killed.
//!   `std` has no `kill(2)`, so the group kill shells out to `kill`;
//!   that happens on failure paths only, never in a timed region.

use std::collections::HashMap;
use std::fs;
use std::io::Read;
use std::net::TcpListener;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `USER_HZ`: the unit of the `/proc` time columns. Fixed at 100 by the
/// Linux ABI on every architecture this repo builds for.
const TICKS_PER_S: f64 = 100.0;

/// `VmHWM` is first sampled this long after the spawn, then at doubling
/// gaps up to [`RSS_GAP_MAX`]: a run of a few milliseconds is still seen
/// after its exec, and a long one costs ~20 samples a second — the
/// ranks own both cores, so the watcher must stay off them.
const RSS_GAP_MIN: Duration = Duration::from_millis(2);
const RSS_GAP_MAX: Duration = Duration::from_millis(50);
/// Descendants are re-discovered every this many RSS samples.
const SCAN_EVERY: u32 = 4;

/// What one finished command cost.
#[derive(Debug, Clone)]
pub struct Cost {
    /// Spawn → reaped, seconds.
    pub wall_s: f64,
    /// User + system CPU of the command and its reaped descendants.
    pub cpu_s: f64,
    /// Sum over the command's processes of each one's peak RSS, MiB.
    /// Zero when RSS tracking was off.
    pub peak_rss_mib: f64,
}

/// How [`run`] watches a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Watch {
    /// Wall and CPU only (set-up launches, too short to poll).
    TimeOnly,
    /// Also poll the child's `VmHWM`.
    Rss,
    /// Also poll the `VmHWM` of every descendant (`palaunch`).
    RssOfTree,
}

/// Run `cmd` to completion under `timeout`.
///
/// The child is reaped by a thread blocked in `wait`, so the wall time
/// ends when the kernel says so and nothing spins beside the ranks; the
/// calling thread sleeps between `VmHWM` samples.
///
/// # Errors
///
/// Why the command counts as a failed operation: spawn error, non-zero
/// exit or timeout (the process group is killed first).
pub fn run(cmd: &mut Command, watch: Watch, timeout: Duration) -> Result<Cost, String> {
    let cpu_before = children_cpu_s();
    let start = Instant::now();
    let mut guard = Guard::spawn(cmd)?;
    let pid = guard.pid();
    let mut hwm: HashMap<u32, u64> = HashMap::new();
    let mut timed_out = false;
    let (status, end) = if watch == Watch::TimeOnly {
        (guard.child.wait(), Instant::now())
    } else {
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let child = &mut guard.child;
            scope.spawn(move || {
                let status = child.wait();
                let _ = tx.send((status, Instant::now()));
            });
            let mut gap = RSS_GAP_MIN;
            let mut sample = 0u32;
            loop {
                match rx.recv_timeout(gap) {
                    Ok(done) => break done,
                    Err(_) if start.elapsed() > timeout && !timed_out => {
                        timed_out = true;
                        kill_group(pid);
                    }
                    Err(_) => {}
                }
                if watch == Watch::RssOfTree && sample.is_multiple_of(SCAN_EVERY) {
                    for d in descendants(pid) {
                        hwm.entry(d).or_insert(0);
                    }
                }
                hwm.entry(pid).or_insert(0);
                for (p, peak) in hwm.iter_mut() {
                    if let Some(kb) = vm_hwm_kb(*p) {
                        *peak = (*peak).max(kb);
                    }
                }
                sample += 1;
                gap = (gap * 2).min(RSS_GAP_MAX);
            }
        })
    };
    let status = status.map_err(|e| format!("wait failed: {e}"))?;
    if timed_out {
        return Err(format!(
            "timed out after {:.1}s: {}",
            timeout.as_secs_f64(),
            guard.stderr_tail()
        ));
    }
    if !status.success() {
        return Err(format!("{status}: {}", guard.stderr_tail()));
    }
    guard.disarm();
    Ok(Cost {
        wall_s: end.duration_since(start).as_secs_f64(),
        cpu_s: children_cpu_s() - cpu_before,
        peak_rss_mib: hwm.values().sum::<u64>() as f64 / 1024.0,
    })
}

/// `kill -9` the process group led by `pid`. `std` has no `kill(2)`, so
/// this shells out; failure paths only, never a timed region.
fn kill_group(pid: u32) {
    let _ = Command::new("kill")
        .args(["-9", "--", &format!("-{pid}")])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// A spawned child in its own process group, killed (group and all) and
/// reaped when dropped — the one place children are created, so no exit
/// path, panic included, leaks a process.
pub struct Guard {
    pub child: Child,
    armed: bool,
}

impl Guard {
    /// Spawn `cmd` with stdin closed, stdout discarded and stderr piped.
    ///
    /// # Errors
    ///
    /// A message naming the program when the spawn fails.
    pub fn spawn(cmd: &mut Command) -> Result<Guard, String> {
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("cannot spawn {:?}: {e}", cmd.get_program()))?;
        Ok(Guard { child, armed: true })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child exited cleanly and reaped its own descendants: nothing
    /// is left to kill.
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// Last line the child wrote to stderr, for a failure message.
    /// Kills the group first, so no straggler keeps the pipe open.
    pub fn stderr_tail(&mut self) -> String {
        self.kill_group();
        let mut text = String::new();
        if let Some(mut err) = self.child.stderr.take() {
            let _ = err.read_to_string(&mut text);
        }
        text.trim().lines().last().unwrap_or("").to_string()
    }

    fn kill_group(&mut self) {
        self.armed = false;
        kill_group(self.pid());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.armed {
            self.kill_group();
        }
    }
}

/// User + system seconds of `pid` so far (threads included).
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let f = stat_fields(&format!("/proc/{pid}/stat"))?;
    Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / TICKS_PER_S)
}

/// Peak RSS of `pid` so far, MiB.
pub fn process_peak_rss_mib(pid: u32) -> Option<f64> {
    vm_hwm_kb(pid).map(|kb| kb as f64 / 1024.0)
}

/// User + system seconds of every child this process has reaped.
fn children_cpu_s() -> f64 {
    stat_fields("/proc/self/stat")
        .and_then(|f| Some(f.get(13)?.parse::<f64>().ok()? + f.get(14)?.parse::<f64>().ok()?))
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// The columns of a `/proc/<pid>/stat` line after the `(comm)` field —
/// index 0 is the state, 1 the ppid, 11/12 utime/stime, 13/14
/// cutime/cstime. Split after the *last* `)`: a command name may hold
/// spaces and parentheses.
fn stat_fields(path: &str) -> Option<Vec<String>> {
    let text = fs::read_to_string(path).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Every live descendant of `root`, by the `ppid` column.
fn descendants(root: u32) -> Vec<u32> {
    let mut parent_of: HashMap<u32, u32> = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    for entry in dir.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if let Some(ppid) =
            stat_fields(&format!("/proc/{pid}/stat")).and_then(|f| f.get(1)?.parse::<u32>().ok())
        {
            parent_of.insert(pid, ppid);
        }
    }
    let mut found = Vec::new();
    let mut frontier = vec![root];
    while let Some(p) = frontier.pop() {
        for (&pid, &ppid) in &parent_of {
            if ppid == p && !found.contains(&pid) {
                found.push(pid);
                frontier.push(pid);
            }
        }
    }
    found
}

/// A free loopback port, found by binding port 0 and letting go of it.
///
/// # Panics
///
/// Panics when loopback cannot be bound at all.
pub fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind a loopback port")
        .port()
}

/// The directory every artefact of a run lives under (outputs, part
/// files, page store, serve cache), removed when dropped.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Create `<parent>/perf-scratch-<pid>`.
    ///
    /// # Errors
    ///
    /// The I/O error of `create_dir_all`.
    pub fn create(parent: &Path) -> std::io::Result<Scratch> {
        let root = parent.join(format!("perf-scratch-{}", std::process::id()));
        fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// File-system type of the scratch root. The numbers price the
    /// program's write path on *this* file system, so it is recorded.
    pub fn fs_type(&self) -> String {
        fs_type(&self.root)
    }
}

/// File-system type `path` lives on, from `/proc/mounts` (longest
/// mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let (_, point, fs) = (cols.next()?, cols.next()?, cols.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}
