//! `perfbench-rss <out-file> <program> [args...]`
//!
//! Runs the program with this process's stdin, stdout and stderr, writes
//! the program's peak resident set size in KiB to `<out-file>`, and exits
//! with the program's exit code (128 + the signal number if a signal ended
//! it).
//!
//! A child's `ru_maxrss` also covers the memory of the process it was
//! spawned from, because the kernel keeps the pre-`exec` high-water mark.
//! Spawned straight from the Python driver, every session would read at
//! least the driver's own RSS. Spawned from this small process, it reads
//! the program's own peak.

use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::process::{Command, ExitCode};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs of
/// which `ru_maxrss` is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

const RUSAGE_CHILDREN: c_int = -1;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [out, program, rest @ ..] = args.as_slice() else {
        eprintln!("usage: perfbench-rss <out-file> <program> [args...]");
        return ExitCode::from(2);
    };
    let status = match Command::new(program).args(rest).status() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench-rss: cannot run {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage`.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        eprintln!("perfbench-rss: getrusage failed");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::write(out, usage.ru_maxrss.to_string()) {
        eprintln!("perfbench-rss: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    let code = status
        .code()
        .or_else(|| status.signal().map(|s| 128 + s))
        .unwrap_or(2);
    ExitCode::from(code as u8)
}
