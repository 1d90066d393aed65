//! The server under test as a child process: build, boot, observe, stop.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// Longest a boot may take before the run is abandoned.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// Kernel clock ticks per second of `/proc` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// Builds `msropm_serve` from the checkout the benchmark runs in (the
/// current directory) and returns the binary's path. Cargo's output goes
/// to stderr so standard output carries only the result line.
pub fn build() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "msropm-server",
            "--bin",
            "msropm_serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building msropm_serve failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("msropm_serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built server not found at {}", bin.display()))
    }
}

/// A running `msropm_serve`; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound address, from the server's `listening on ADDR` line.
    pub addr: String,
}

impl ServerProc {
    /// Spawns `bin` on an ephemeral port and waits for its
    /// `listening on ADDR` line.
    pub fn spawn(bin: &PathBuf, args: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // Read the announcement on a helper thread so a server that
        // neither speaks nor dies cannot hang the benchmark.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut stdout = stdout;
            let mut line = String::new();
            let _ = stdout.read_line(&mut line);
            let _ = tx.send(());
            (stdout, line)
        });
        if rx.recv_timeout(BOOT_TIMEOUT).is_err() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err("server did not announce its address in time".into());
        }
        let (stdout, line) = reader.join().expect("announcement reader does not panic");
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match addr {
            Some(addr) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "server did not announce its address (got {line:?})"
                ))
            }
        }
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time the server has used, seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("cannot read server stat: {e}"))?;
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| "malformed /proc stat times".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) / USER_HZ)
    }

    /// Peak resident set size (VmHWM), mebibytes.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
