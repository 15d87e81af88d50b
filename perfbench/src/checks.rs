//! Correctness gates. Every check panics on failure: a run that fails
//! one prints no result.

use crate::client::Conns;
use smartstore::versioning::Change;
use smartstore_service::codec::{decode_response_batch, encode_request_batch};
use smartstore_service::{MetadataServer, Request, Response, Transport};
use std::collections::BTreeMap;
use std::net::SocketAddr;

/// Structural invariants of every shard: the semantic R-tree's, and
/// each storage unit's columnar/row coherence.
pub fn check_server(server: &MetadataServer, what: &str) {
    for i in 0..server.n_shards() {
        assert!(
            server.shard_health(i).is_healthy(),
            "{what}: shard {i} is quarantined"
        );
        let sys = server.shard(i);
        if let Err(e) = sys.tree().check_invariants() {
            panic!("{what}: shard {i} tree invariant broken: {e}");
        }
        for u in sys.units() {
            if let Err(e) = u.check_columnar_coherence() {
                panic!("{what}: shard {i} unit {} incoherent: {e}", u.id);
            }
        }
    }
}

/// Requests per batch of the parity gate and the probe set.
pub const BATCH: usize = 16;

/// Socket response bytes must equal the in-process wire path on the
/// same requests against an identically built server.
pub fn parity_gate(
    conns: &Conns,
    addr: SocketAddr,
    reference: &mut MetadataServer,
    reqs: &[Request],
) -> Vec<Response> {
    let over_socket = crate::client::exchange(conns, addr, reqs, BATCH).expect("parity socket leg");
    let mut answers = Vec::with_capacity(reqs.len());
    for (batch, socket_bytes) in reqs.chunks(BATCH).zip(&over_socket) {
        let local = reference
            .exchange(&encode_request_batch(batch), batch.len())
            .expect("parity in-process leg");
        assert_eq!(
            socket_bytes, &local,
            "parity gate: socket answers diverged from the in-process wire path"
        );
        answers.extend(decode_response_batch(socket_bytes).expect("parity responses decode"));
    }
    answers
}

/// Acknowledged mutations, in acknowledgement order.
#[derive(Debug, Default)]
pub struct Acks {
    /// Acknowledged inserts not deleted since: id → name.
    pub live: BTreeMap<u64, String>,
    /// Acknowledged deletes of acknowledged inserts: id → name.
    pub deleted: BTreeMap<u64, String>,
}

impl Acks {
    /// Records `req` as acknowledged (non-mutations are ignored).
    pub fn ack(&mut self, req: &Request) {
        let Request::ApplyChange { change } = req else {
            return;
        };
        match change {
            Change::Insert(f) => {
                self.live.insert(f.file_id, f.name.clone());
            }
            Change::Delete(id) => {
                if let Some(name) = self.live.remove(id) {
                    self.deleted.insert(*id, name);
                }
            }
            Change::Modify(_) => {}
        }
    }
}

/// Most acknowledged inserts (and, separately, deletes) probed.
const PROBE_PER_KIND: usize = 400;

/// The durability probe set: point lookups of acknowledged inserts and
/// deletes, plus `reads` (a fixed slice of the workload's own reads).
pub fn probe_set(acks: &Acks, reads: &[Request]) -> Vec<Request> {
    let point = |name: &String| Request::Point { name: name.clone() };
    acks.live
        .values()
        .take(PROBE_PER_KIND)
        .map(point)
        .chain(acks.deleted.values().take(PROBE_PER_KIND).map(point))
        .chain(reads.iter().filter(|r| r.is_read()).cloned())
        .collect()
}

/// Checks the reopened server against the live answers: byte-identical
/// responses, every acknowledged insert found, every acknowledged
/// delete gone.
pub fn check_reopened(
    reopened: &mut MetadataServer,
    probe: &[Request],
    live_bytes: &[Vec<u8>],
    acks: &Acks,
) {
    let mut answers = Vec::with_capacity(probe.len());
    for (batch, live) in probe.chunks(BATCH).zip(live_bytes) {
        let local = reopened
            .exchange(&encode_request_batch(batch), batch.len())
            .expect("probe on the reopened server");
        assert_eq!(
            &local, live,
            "durability probe: the reopened server answers differently from the live one"
        );
        answers.extend(decode_response_batch(&local).expect("probe responses decode"));
    }
    let n_live = acks.live.len().min(PROBE_PER_KIND);
    let n_deleted = acks.deleted.len().min(PROBE_PER_KIND);
    for ((id, name), resp) in acks.live.iter().zip(&answers[..n_live]) {
        let ids = resp.file_ids().unwrap_or_default();
        assert!(
            ids.contains(id),
            "acknowledged insert {name} (id {id}) is missing after reopen: {resp:?}"
        );
    }
    for ((id, name), resp) in acks
        .deleted
        .iter()
        .zip(&answers[n_live..n_live + n_deleted])
    {
        let ids = resp.file_ids().unwrap_or_default();
        assert!(
            !ids.contains(id),
            "acknowledged delete {name} (id {id}) is visible after reopen"
        );
    }
}
