//! The socket path holds exactly the connections its workload declares,
//! before and throughout a closed-loop phase.

use std::sync::Arc;
use tracto_perfbench::closed_loop::{run_closed_loop, Phase, Settled, Socket};
use tracto_perfbench::schedule::{Schedule, Workload};
use tracto_proto::Endpoint;
use tracto_serve::{ServiceConfig, SocketServer, TractoService};

/// Open socket descriptors of this process (client and server ends).
fn socket_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .flatten()
        .filter(|e| {
            std::fs::read_link(e.path()).is_ok_and(|l| l.to_string_lossy().starts_with("socket:"))
        })
        .count()
}

#[test]
fn socket_mix_loop_uses_two_connections() {
    // Socket paths are length-limited: bind relative to the temp dir.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("socket_connections");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_current_dir(&dir).unwrap();
    let service = Arc::new(TractoService::start(ServiceConfig::default()));
    let endpoint = Endpoint::Unix("s.sock".into());
    let server = SocketServer::bind(Arc::clone(&service), &endpoint).unwrap();

    let before = socket_fds();
    let mut socket = Socket::connect(&endpoint).unwrap();
    let connections = Workload::SocketMix.connections();
    assert_eq!(connections, 2);
    // Each connection is one client and one server descriptor.
    assert_eq!(socket_fds() - before, 2 * connections);

    let mut schedule = Schedule::new(Workload::SocketMix, 1);
    let phase = Phase {
        window: Workload::SocketMix.window(),
        seconds: 0.0,
        min_jobs: 6,
    };
    let stats = run_closed_loop(&mut socket, &mut schedule, phase).unwrap();
    assert!(stats.peak_outstanding <= phase.window);
    assert!(stats
        .records
        .iter()
        .all(|r| !matches!(r.settled, Settled::Failed(_))));
    assert_eq!(
        socket_fds() - before,
        2 * connections,
        "no connection opened mid-run"
    );

    drop(socket);
    server.stop();
    drop(service);
}
