//! The threaded transport around [`ServeCore`].
//!
//! One worker thread executes queued jobs; one reader thread per
//! attached connection feeds request lines in. All state transitions
//! and all socket writes happen under the single state lock, which
//! makes the cursor stream race-free by construction: a result is
//! appended to the client's backlog and written to its live connection
//! atomically, so a concurrent reconnect-with-replay can neither miss
//! it nor see it twice.
//!
//! Connections are transports, clients are identities: a client that
//! drops mid-stream loses nothing (unwritable lines stay retained) and
//! re-attaches with `hello {resume_from}` on a new connection.

use crate::core::{ServeCore, Session};
use crate::error::ServeError;
use crate::protocol;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

struct Shared {
    core: ServeCore,
    writers: HashMap<String, SharedWriter>,
    /// Worker exit status once it drained and persisted.
    finished: Option<Result<(), String>>,
}

struct Inner {
    state: Mutex<Shared>,
    work: Condvar,
}

/// A running scenario-service daemon.
pub struct Daemon {
    inner: Arc<Inner>,
    worker: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the worker thread around `core` (cold or manifest-warmed).
    pub fn start(core: ServeCore) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(Shared {
                core,
                writers: HashMap::new(),
                finished: None,
            }),
            work: Condvar::new(),
        });
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || worker_loop(&inner))
        };
        Daemon {
            inner,
            worker: Some(worker),
        }
    }

    /// Attaches one connection: spawns a reader thread that feeds lines
    /// into the core and writes responses back. A line that is not UTF-8
    /// is answered with a `Protocol` error and the next line is read. The
    /// thread exits on EOF or read error; the daemon itself keeps running.
    pub fn attach<R, W>(&self, reader: R, writer: W) -> JoinHandle<()>
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || {
            let shared: SharedWriter = Arc::new(Mutex::new(Box::new(writer)));
            let mut session = Session::new();
            let mut registered: Option<String> = None;
            let mut reader = BufReader::new(reader);
            let mut raw = Vec::new();
            loop {
                raw.clear();
                match reader.read_until(b'\n', &mut raw) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let line = request_text(&raw);
                if line.as_ref().is_ok_and(|l| l.trim().is_empty()) {
                    continue;
                }
                let Ok(mut st) = inner.state.lock() else {
                    break;
                };
                let responses = match line {
                    Ok(line) => st.core.handle_line(&mut session, line),
                    Err(e) => vec![protocol::error_line(&e)],
                };
                // First successful hello on this connection routes the
                // client's live result stream here.
                if let Some(client) = session.client() {
                    if registered.as_deref() != Some(client) {
                        registered = Some(client.to_string());
                        st.writers.insert(client.to_string(), Arc::clone(&shared));
                    }
                }
                let ok = {
                    let Ok(mut w) = shared.lock() else { break };
                    write_lines(&mut **w, &responses)
                };
                if !ok {
                    // The connection died mid-response; stop routing
                    // live results at it.
                    if let Some(client) = &registered {
                        st.writers.remove(client);
                    }
                    break;
                }
                drop(st);
                inner.work.notify_all();
            }
        })
    }

    /// Requests a drain-and-exit, exactly as a client `shutdown` op
    /// would (used by the binary when stdin reaches EOF).
    pub fn request_shutdown(&self) {
        let mut session = Session::new();
        if let Ok(mut st) = self.inner.state.lock() {
            st.core.handle_line(&mut session, r#"{"op":"shutdown"}"#);
        }
        self.inner.work.notify_all();
    }

    /// True once the worker has drained the queue after a shutdown
    /// request and persisted the manifest (accept loops poll this).
    pub fn is_finished(&self) -> bool {
        self.inner
            .state
            .lock()
            .map(|st| st.finished.is_some())
            .unwrap_or(true)
    }

    /// Waits for the worker to drain the queue and persist the cache
    /// manifest. Returns the persist outcome.
    pub fn join(mut self) -> Result<(), ServeError> {
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        let st = self.inner.state.lock().map_err(|_| ServeError::Io {
            detail: "daemon state poisoned".into(),
        })?;
        match &st.finished {
            Some(Ok(())) => Ok(()),
            Some(Err(detail)) => Err(ServeError::Io {
                detail: detail.clone(),
            }),
            None => Err(ServeError::Io {
                detail: "worker exited without finishing".into(),
            }),
        }
    }
}

fn write_lines(w: &mut dyn Write, lines: &[String]) -> bool {
    for l in lines {
        if writeln!(w, "{l}").is_err() {
            return false;
        }
    }
    w.flush().is_ok()
}

fn worker_loop(inner: &Inner) {
    let Ok(mut st) = inner.state.lock() else {
        return;
    };
    loop {
        while !st.core.has_work() {
            if st.core.draining() {
                let res = st.core.persist().map_err(|e| e.to_string());
                st.finished = Some(res);
                inner.work.notify_all();
                return;
            }
            st = match inner.work.wait(st) {
                Ok(g) => g,
                Err(_) => return,
            };
        }
        // Execute under the lock: simulation time is the product here,
        // and holding the lock keeps append-to-backlog + live-write
        // atomic against reconnect replays.
        if let Some(out) = st.core.step() {
            if let Some(w) = st.writers.get(&out.client).map(Arc::clone) {
                let ok = match w.lock() {
                    Ok(mut w) => write_lines(&mut **w, &out.lines),
                    Err(_) => false,
                };
                if !ok {
                    st.writers.remove(&out.client);
                }
            }
        }
    }
}

/// A request line as text, its line ending (`\n` or `\r\n`) cut off.
fn request_text(raw: &[u8]) -> Result<&str, ServeError> {
    let raw = raw.strip_suffix(b"\n").unwrap_or(raw);
    let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
    std::str::from_utf8(raw).map_err(|e| ServeError::Protocol {
        detail: format!(
            "request line is not UTF-8 (invalid byte at offset {})",
            e.valid_up_to()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServeConfig;
    use spam_scenario::ScenarioSpec;
    use std::os::unix::net::UnixStream;

    #[test]
    fn daemon_streams_results_over_a_socketpair() {
        let daemon = Daemon::start(ServeCore::new(ServeConfig::default()));
        let (client, server) = UnixStream::pair().unwrap();
        daemon.attach(server.try_clone().unwrap(), server);

        let mut spec = ScenarioSpec::example("daemon-smoke");
        spec.topology.switches = 16;
        spec.traffic = spam_scenario::TrafficSpec::SingleMulticast { dests: 4, len: 64 };
        spec.replications = 1;
        let mut tx = client.try_clone().unwrap();
        writeln!(tx, r#"{{"op":"hello","client":"c1"}}"#).unwrap();
        writeln!(
            tx,
            r#"{{"op":"run","spec":{}}}"#,
            spec.to_json().to_string_compact()
        )
        .unwrap();

        let mut lines = BufReader::new(client).lines();
        let hello = lines.next().unwrap().unwrap();
        assert!(hello.contains("\"hello\""), "{hello}");
        let queued = lines.next().unwrap().unwrap();
        assert!(queued.contains("\"queued\""), "{queued}");
        let result = lines.next().unwrap().unwrap();
        assert!(result.contains("\"result\""), "{result}");
        assert!(result.contains("\"cursor\":1"), "{result}");

        writeln!(tx, r#"{{"op":"shutdown"}}"#).unwrap();
        drop(tx);
        daemon.join().unwrap();
    }

    /// A writer whose bytes the test reads back after the connection ends.
    #[derive(Clone, Default)]
    struct Captured(Arc<Mutex<Vec<u8>>>);

    impl Write for Captured {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_that_is_not_utf8_gets_a_protocol_error_and_reading_goes_on() {
        let daemon = Daemon::start(ServeCore::new(ServeConfig::default()));
        let input =
            b"{\"op\":\"hello\",\"client\":\"c\"}\n{\"op\":\"st\xffats\"}\r\n{\"op\":\"stats\"}\n";
        let out = Captured::default();
        daemon
            .attach(std::io::Cursor::new(input.to_vec()), out.clone())
            .join()
            .unwrap();
        let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"hello\""), "{}", lines[0]);
        assert!(lines[1].contains("\"error\":\"Protocol\""), "{}", lines[1]);
        assert!(lines[1].contains("not UTF-8"), "{}", lines[1]);
        assert!(lines[2].contains("\"stats\""), "{}", lines[2]);
        daemon.request_shutdown();
        daemon.join().unwrap();
    }
}
