//! Session snapshot encoding — the payload of durability checkpoints.
//!
//! A snapshot captures a [`SharedSession`]'s exact state at one op-log
//! version: the interner string table, the extensional
//! [`Database`](triq_datalog::Database) and
//! every maintained view that is synced to the head (instance, skolem
//! memo, program text and chase configuration — see
//! `triq_datalog::persist`). Decoding yields a [`Session`] whose views
//! wait in the *restored* set, keyed by durable plan fingerprint; the
//! first execution of a matching prepared query adopts one without
//! re-running the chase. File framing (magic, CRC, atomic rename) is the
//! `triq-persist` crate's job — this module only defines the body.
//!
//! Recovered sessions do not carry an RDF [`Graph`](triq_rdf::Graph):
//! the database is the source of truth after `τ_db`, and every serving
//! path reads it. A graph file sitting next to the snapshot is ignored
//! on recovery.

use std::collections::HashMap;
use std::sync::Mutex;

use triq_common::codec::{encode_interner, Decoder, Encoder, SymbolRemap};
use triq_common::{Result, TriqError};
use triq_datalog::persist::{decode_database, decode_view, encode_database, encode_view};

use crate::api::{Engine, OpLog, RestoredView, Session, SharedSession};

/// Upper bound on the view count a snapshot may declare — far above
/// anything a session produces (live views are capped at 32), it merely
/// keeps a corrupt length prefix from driving a huge allocation loop.
const MAX_SNAPSHOT_VIEWS: usize = 1024;

fn corrupt(msg: &str) -> TriqError {
    TriqError::Persist(format!("corrupt snapshot: {msg}"))
}

/// Encodes the exact current state of a shared session under its writer
/// lock. Returns the snapshot body and the op-log version it reflects.
///
/// Views included: every live maintained view that is synced to the
/// head and not poisoned, plus every not-yet-adopted restored view at
/// the head (so an unclaimed recovered view survives the next
/// checkpoint too). Views are written in fingerprint order — the
/// encoding is deterministic for a given state, which is what the
/// kill-and-recover differential tests compare.
pub fn encode_snapshot(shared: &SharedSession) -> (Vec<u8>, u64) {
    shared.with_writer(encode_session)
}

/// [`encode_snapshot`] against an exclusively-held session.
pub fn encode_session(session: &mut Session) -> (Vec<u8>, u64) {
    let version = session.ops.version();
    let mut enc = Encoder::new();
    encode_interner(&mut enc);
    enc.varint(version);
    encode_database(&mut enc, &session.db);

    // Collect qualifying views, deduplicated by fingerprint (two plan
    // ids can compile the same program + config; one copy suffices —
    // adoption hands it to whichever query executes first). Live views
    // win over restored ones.
    let mut chosen: std::collections::BTreeMap<u64, Vec<u8>> = std::collections::BTreeMap::new();
    let views = session.views.get_mut().expect("session views poisoned");
    for cell in views.values() {
        let entry = cell.lock().expect("session view poisoned");
        if entry.synced != version {
            continue;
        }
        let Some(view) = entry.view.as_ref() else {
            continue;
        };
        if view.is_poisoned() {
            continue;
        }
        let fp = triq_datalog::persist::view_fingerprint(view);
        chosen.entry(fp).or_insert_with(|| {
            let mut venc = Encoder::new();
            encode_view(&mut venc, view);
            venc.into_bytes()
        });
    }
    let restored = session.restored.get_mut().expect("restored views poisoned");
    for (fp, rv) in restored.iter() {
        if rv.synced != version {
            continue;
        }
        chosen.entry(*fp).or_insert_with(|| {
            let mut venc = Encoder::new();
            encode_view(&mut venc, &rv.view);
            venc.into_bytes()
        });
    }

    enc.varint(chosen.len() as u64);
    for bytes in chosen.values() {
        enc.raw(bytes);
    }
    (enc.into_bytes(), version)
}

/// Decodes a snapshot body written by [`encode_snapshot`] into a fresh
/// [`Session`] of `engine`, positioned at the snapshot's version with an
/// empty op log (WAL replay appends from here). Every stored view lands
/// in the session's restored set; duplicate fingerprints and trailing
/// bytes are corruption.
pub fn decode_snapshot(engine: &Engine, bytes: &[u8]) -> Result<Session> {
    let mut dec = Decoder::new(bytes);
    let remap = SymbolRemap::decode(&mut dec)?;
    let version = dec.varint()?;
    let db = decode_database(&mut dec, &remap)?;
    let count = dec.len_capped(MAX_SNAPSHOT_VIEWS)?;
    let mut restored: HashMap<u64, RestoredView> = HashMap::with_capacity(count);
    for _ in 0..count {
        let (view, fingerprint) = decode_view(&mut dec, &remap, db.clone())?;
        let dup = restored
            .insert(
                fingerprint,
                RestoredView {
                    view,
                    synced: version,
                },
            )
            .is_some();
        if dup {
            return Err(corrupt("duplicate view fingerprint"));
        }
    }
    if !dec.is_exhausted() {
        return Err(corrupt("trailing bytes after last view"));
    }
    Ok(Session {
        engine: engine.clone(),
        graph: None,
        db,
        ops: OpLog {
            base: version,
            ops: Vec::new(),
        },
        views: Mutex::new(HashMap::new()),
        restored: Mutex::new(restored),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Datalog;
    use triq_common::Delta;

    const TC: &str = "e(?X, ?Y) -> t(?X, ?Y).\n e(?X, ?Y), t(?Y, ?Z) -> t(?X, ?Z).\n\
                      t(?X, ?Y) -> out(?X, ?Y).";

    #[test]
    fn snapshot_round_trips_and_is_adopted_without_a_chase() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog(TC, "out")).unwrap();
        let mut session = engine.session();
        session.add_fact("e", &["a", "b"]);
        session.add_fact("e", &["b", "c"]);
        let shared = session.into_shared();
        let before = shared.execute(&q).unwrap();
        assert!(before.contains(&["a", "c"]));

        let (bytes, version) = encode_snapshot(&shared);
        assert_eq!(version, 2);

        // Recover into a fresh engine; the same prepared query (same
        // program text + config → same fingerprint) adopts the restored
        // view: answers are identical and no chase runs.
        let engine2 = Engine::new();
        let q2 = engine2.prepare(Datalog(TC, "out")).unwrap();
        let recovered = decode_snapshot(&engine2, &bytes).unwrap();
        assert_eq!(recovered.version(), 2);
        let runs_before = engine2.stats().chase_runs;
        let shared2 = recovered.into_shared();
        let after = shared2.execute(&q2).unwrap();
        assert_eq!(
            engine2.stats().chase_runs,
            runs_before,
            "adopted, not re-chased"
        );
        assert_eq!(before.tuples(), after.tuples());

        // The recovered session keeps maintaining incrementally.
        shared2.apply(&Delta::new().insert("e", &["c", "d"]));
        assert!(shared2.execute(&q2).unwrap().contains(&["a", "d"]));
    }

    #[test]
    fn snapshot_encoding_is_deterministic() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog(TC, "out")).unwrap();
        let mut session = engine.session();
        session.add_fact("e", &["a", "b"]);
        let shared = session.into_shared();
        shared.execute(&q).unwrap();
        // The snapshot carries the process-wide interner, which tests
        // running in parallel keep growing: compare two encodings taken
        // while its size held still.
        loop {
            let symbols = triq_common::interned_strings().len();
            let (a, _) = encode_snapshot(&shared);
            let (b, _) = encode_snapshot(&shared);
            if triq_common::interned_strings().len() == symbols {
                assert_eq!(a, b);
                break;
            }
        }
    }

    #[test]
    fn restored_view_survives_the_next_checkpoint_unadopted() {
        let engine = Engine::new();
        let q = engine.prepare(Datalog(TC, "out")).unwrap();
        let mut session = engine.session();
        session.add_fact("e", &["a", "b"]);
        let shared = session.into_shared();
        shared.execute(&q).unwrap();
        let (bytes, _) = encode_snapshot(&shared);

        let engine2 = Engine::new();
        let recovered = decode_snapshot(&engine2, &bytes).unwrap();
        let shared2 = recovered.into_shared();
        // No query executed: the view is still in the restored set, and
        // a new checkpoint must carry it forward.
        let (bytes2, _) = encode_snapshot(&shared2);
        let engine3 = Engine::new();
        let recovered3 = decode_snapshot(&engine3, &bytes2).unwrap();
        let q3 = engine3.prepare(Datalog(TC, "out")).unwrap();
        let runs = engine3.stats().chase_runs;
        let shared3 = recovered3.into_shared();
        assert!(shared3.execute(&q3).unwrap().contains(&["a", "b"]));
        assert_eq!(engine3.stats().chase_runs, runs);
    }

    #[test]
    fn truncated_snapshot_is_an_error_not_a_panic() {
        let engine = Engine::new();
        let mut session = engine.session();
        session.add_fact("e", &["a", "b"]);
        let shared = session.into_shared();
        let (bytes, _) = encode_snapshot(&shared);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let engine2 = Engine::new();
            assert!(decode_snapshot(&engine2, &bytes[..cut]).is_err());
        }
        // Trailing garbage is also rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        let engine2 = Engine::new();
        assert!(decode_snapshot(&engine2, &padded).is_err());
    }
}
