//! The benchmark as a process: what its exit code says, and that a
//! child of `--aa` does not outlive its parent.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spn-benchmark"))
}

#[test]
fn a_command_line_it_cannot_read_exits_nonzero_without_a_result() {
    let out = benchmark()
        .args(["--workload", "no_such_workload"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

/// `--aa` holds its children's standard input open; when it goes away
/// (here: the pipe is dropped mid-run) the child must end at once
/// rather than finish its minute of measuring.
#[test]
fn a_child_exits_when_its_parent_goes_away() {
    let mut child = benchmark()
        .args(["--workload", "device_offline", "--seconds", "60"])
        .args(["--trace", "0", "--die-with-parent"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert!(child.try_wait().unwrap().is_none(), "still measuring");
    drop(child.stdin.take());
    let gone_by = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            assert_eq!(status.code(), Some(70));
            return;
        }
        if Instant::now() > gone_by {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("the child outlived its parent's pipe");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
