//! Child server processes: spawn, wait for readiness, read peak memory,
//! and shut down (SIGTERM, then SIGKILL if the child does not exit).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// How long a child gets to exit after SIGTERM before it is SIGKILLed.
const TERM_GRACE: Duration = Duration::from_secs(3);

/// Pids of every live child, so the watchdog can kill them all.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn signal(pid: u32, sig: i32) {
    // SAFETY: kill(2) takes plain integers and touches no memory of ours;
    // the pid is one of our own unreaped children, so it cannot have been
    // recycled for an unrelated process.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// SIGKILLs every live child. Called by the watchdog just before it exits.
pub fn kill_all() {
    let pids = LIVE.lock().map(|l| l.clone()).unwrap_or_default();
    for pid in pids {
        signal(pid, SIGKILL);
    }
}

/// One running `ceci-serve` or `ceci-shard`.
pub struct Server {
    child: Child,
    /// Held open so a late write by the child never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address the child printed in its `listening on` line.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `bin args...` and waits for its `listening on <addr>` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        LIVE.lock().expect("pid list lock").push(child.id());
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: "0.0.0.0:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!(
                "{} did not report a listening address (got {line:?})",
                bin.display()
            )),
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_vm_hwm_kib(&status)
            .map(|kib| kib as f64 / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// SIGTERM, wait up to [`TERM_GRACE`], then SIGKILL. Returns `true`
    /// when the child exited on SIGTERM alone.
    pub fn shutdown(mut self) -> bool {
        self.stop()
    }

    fn stop(&mut self) -> bool {
        if let Ok(Some(_)) = self.child.try_wait() {
            self.forget();
            return true;
        }
        signal(self.child.id(), SIGTERM);
        let until = Instant::now() + TERM_GRACE;
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break true,
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(5)),
                _ => break false,
            }
        };
        if !clean {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.forget();
        clean
    }

    fn forget(&self) {
        if let Ok(mut live) = LIVE.lock() {
            live.retain(|&p| p != self.child.id());
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The `VmHWM:` value of a `/proc/<pid>/status` text, in KiB.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm() {
        let status =
            "Name:\tceci-serve\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name: x\n"), None);
    }
}
