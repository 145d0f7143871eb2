//! `spam-serve` — the scenario-service daemon binary.
//!
//! ```text
//! spam-serve [--socket PATH] [--queue-capacity N] [--cache-entries N]
//!            [--cache-bytes N] [--persist PATH]
//! ```
//!
//! Without `--socket`, serves JSONL on stdin/stdout and treats stdin
//! EOF as a shutdown request (drain the queue, persist the manifest,
//! exit 0) — the mode the CI smoke job uses (the `benchmark/` workloads
//! drive `ServeCore` in-process instead). With `--socket PATH`, listens
//! on a unix socket and serves each accepted connection until a client
//! sends `shutdown`.
//!
//! With `--persist PATH`, the cache manifest is written there on
//! shutdown and loaded on start; a corrupt or stale manifest is
//! reported on stderr and the daemon starts cold (a poisoned cache
//! must never block service).

use spam_serve::{ArtifactCache, Daemon, ServeConfig, ServeCore};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    socket: Option<PathBuf>,
    cfg: ServeConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        socket: None,
        cfg: ServeConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--socket" => args.socket = Some(PathBuf::from(value("--socket")?)),
            "--persist" => args.cfg.persist_path = Some(PathBuf::from(value("--persist")?)),
            "--queue-capacity" => {
                args.cfg.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?;
            }
            "--cache-entries" => {
                args.cfg.cache.max_entries = value("--cache-entries")?
                    .parse()
                    .map_err(|e| format!("--cache-entries: {e}"))?;
            }
            "--cache-bytes" => {
                args.cfg.cache.max_bytes = value("--cache-bytes")?
                    .parse()
                    .map_err(|e| format!("--cache-bytes: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Warm-start policy: a loadable manifest seeds the cache; a missing
/// one is a normal cold start; a corrupt one is reported and ignored.
fn open_cache(cfg: &ServeConfig) -> ArtifactCache {
    let Some(path) = &cfg.persist_path else {
        return ArtifactCache::new(cfg.cache);
    };
    if !path.exists() {
        return ArtifactCache::new(cfg.cache);
    }
    match ArtifactCache::load_manifest(path, cfg.cache) {
        Ok(cache) => {
            eprintln!(
                "spam-serve: warm start, {} cached artifact(s) from {}",
                cache.stats().entries,
                path.display()
            );
            cache
        }
        Err(e) => {
            eprintln!(
                "spam-serve: ignoring manifest {}: {e}; starting cold",
                path.display()
            );
            ArtifactCache::new(cfg.cache)
        }
    }
}

fn serve_stdio(core: ServeCore) -> Result<(), String> {
    let daemon = Daemon::start(core);
    let handle = daemon.attach(std::io::stdin(), std::io::stdout());
    // EOF on stdin ends the reader; drain whatever is still queued.
    let _ = handle.join();
    daemon.request_shutdown();
    daemon.join().map_err(|e| e.to_string())
}

fn serve_socket(core: ServeCore, path: &std::path::Path) -> Result<(), String> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| format!("bind {path:?}: {e}"))?;
    eprintln!("spam-serve: listening on {}", path.display());
    let daemon = Daemon::start(core);
    // Poll accept so a client-requested shutdown can end the loop.
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(|e| e.to_string())?;
                let reader = stream.try_clone().map_err(|e| e.to_string())?;
                daemon.attach(reader, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if daemon.is_finished() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    let res = daemon.join().map_err(|e| e.to_string());
    let _ = std::fs::remove_file(path);
    res
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spam-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let cache = open_cache(&args.cfg);
    let core = ServeCore::with_cache(args.cfg.clone(), cache);
    let res = match &args.socket {
        Some(path) => serve_socket(core, path),
        None => serve_stdio(core),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("spam-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
