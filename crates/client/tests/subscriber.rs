//! `Subscriber` against a fake server that controls exactly when each
//! byte of the stream arrives.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use corion_client::Client;
use corion_core::{ClassId, Oid};
use corion_protocol::{encode_response, read_frame, write_frame, Delta, Response};

fn event(commit_lsn: u64) -> Response {
    Response::Event {
        commit_lsn,
        deltas: vec![Delta::Made(Oid::new(ClassId(1), commit_lsn))],
    }
}

fn send(stream: &mut TcpStream, resp: &Response) {
    write_frame(stream, &encode_response(resp)).unwrap();
}

#[test]
fn a_timeout_inside_an_event_does_not_lose_its_bytes() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        s.set_nodelay(true).unwrap();
        read_frame(&mut s).unwrap(); // Hello
        send(
            &mut s,
            &Response::HelloOk {
                version: 1,
                session: 1,
            },
        );
        read_frame(&mut s).unwrap(); // Subscribe
        send(&mut s, &Response::SubscribeOk { start_lsn: 0 });
        let first = encode_response(&event(1));
        s.write_all(&(first.len() as u32).to_le_bytes()).unwrap();
        // Past the client's timeout, with only the header sent.
        std::thread::sleep(Duration::from_millis(150));
        s.write_all(&first).unwrap();
        send(&mut s, &event(2));
        // Hold the connection open until the client has read both.
        let _ = read_frame(&mut s);
    });

    let mut sub = Client::connect(addr, 0).unwrap().subscribe().unwrap();
    let mut lsns = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while lsns.len() < 2 && Instant::now() < deadline {
        if let Some(ev) = sub.next_event_timeout(Duration::from_millis(30)).unwrap() {
            assert_eq!(ev.deltas.len(), 1);
            lsns.push(ev.commit_lsn);
        }
    }
    assert_eq!(lsns, vec![1, 2]);
    drop(sub);
    server.join().unwrap();
}
