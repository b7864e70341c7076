//! A recycled [`Replayer`] replays exactly as a fresh one.
//!
//! A sweep replays its variants one after another on pooled replayers,
//! and a bandwidth search replays all its steps on one. Each replay
//! resets only what the last one left (the links it touched, the
//! interned routes after a fault), so the sequence below leaves every
//! kind of residue in turn: another trace width and fabric, a killed
//! link that is never restored, a deadlock that strands messages and
//! channels, and a generator far wider than the traces before it. Each
//! replay must render, and report, exactly as on a fresh replayer.

use overlap_sim::machine::{
    render_exact, replay_scale, simulate, FaultSchedule, Platform, Replayer, Topology,
};
use overlap_sim::trace::mlgen::{MlAllreduce, MlConfig};
use overlap_sim::trace::record::{Record, SendMode};
use overlap_sim::trace::{text, Bytes, Rank, Tag, Trace, TraceSource, TransferId};
use std::path::PathBuf;

fn fixture(name: &str) -> Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let content = std::fs::read_to_string(&path).unwrap();
    text::parse(&content).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn fat_tree() -> Platform {
    Platform::default().with_topology(Topology::FatTree {
        radix: 4,
        oversubscription: 1,
    })
}

/// Two ranks whose rendezvous sends use tags the other side never
/// receives: the replay ends in a deadlock with messages, receive
/// requests and channels still live.
fn deadlock() -> Trace {
    let mut t = Trace::new(2);
    for (me, peer) in [(0u32, 1u32), (1, 0)] {
        t.ranks[me as usize].push(Record::Send {
            dst: Rank(peer),
            tag: Tag::user(me + 1),
            bytes: Bytes(1 << 20),
            mode: SendMode::Rendezvous,
            transfer: TransferId::new(Rank(me), 0),
        });
        t.ranks[me as usize].push(Record::Recv {
            src: Rank(peer),
            tag: Tag::user(7),
            bytes: Bytes(1 << 20),
            transfer: TransferId::new(Rank(me), 1),
        });
    }
    t
}

/// Replay `source` on `platform` with `rp`, fully and totals-only, and
/// require both to equal a fresh replayer's.
fn assert_fresh(rp: &mut Replayer, label: &str, source: &dyn TraceSource, platform: &Platform) {
    assert_eq!(
        render_exact(&rp.simulate(source, platform)),
        render_exact(&simulate(source, platform)),
        "{label}: a reused replayer's replay differs from a fresh one"
    );
    assert_eq!(
        rp.replay_scale(source, platform),
        replay_scale(source, platform),
        "{label}: a reused replayer's scale report differs from a fresh one"
    );
}

#[test]
fn a_reused_replayer_replays_as_a_fresh_one() {
    let cg = fixture("nas_cg_8r.trf");
    let sweep3d = fixture("sweep3d_4r.trf");
    // never restored: the replay ends with routes interned around the
    // dead up-link
    let kill: FaultSchedule = "kill@50us:e0->a0".parse().unwrap();
    let killed = fat_tree().with_faults(kill);
    let bytes = |p: &Platform| -> Vec<f64> {
        let sim = simulate(&cg, p).unwrap();
        sim.links.iter().map(|l| l.bytes).collect()
    };
    assert_ne!(
        bytes(&killed),
        bytes(&fat_tree()),
        "the kill must move traffic"
    );
    let ml = MlAllreduce::new(MlConfig::new(256, 0x6d6c_6172).unwrap());

    let mut rp = Replayer::new();
    assert_fresh(&mut rp, "nas_cg_8r/bus", &cg, &Platform::default());
    assert_fresh(&mut rp, "sweep3d_4r/fat-tree:4", &sweep3d, &fat_tree());
    assert_fresh(&mut rp, "nas_cg_8r/kill", &cg, &killed);
    let stuck = rp.simulate(&deadlock(), &fat_tree());
    assert!(
        matches!(stuck, Err(overlap_sim::machine::SimError::Deadlock { .. })),
        "{stuck:?}"
    );
    assert_fresh(&mut rp, "deadlock/fat-tree:4", &deadlock(), &fat_tree());
    assert_fresh(&mut rp, "nas_cg_8r/fat-tree:4", &cg, &fat_tree());
    assert_fresh(&mut rp, "ml-allreduce-256/bus", &ml, &Platform::default());
}
