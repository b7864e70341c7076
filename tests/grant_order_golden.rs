//! Absolute anchors for the order in which blocked transfers are granted.
//!
//! The engine grants a blocked transfer the moment a resource it waits
//! on frees up, taking waiters in initiation order (first-fit). Every
//! case below replays on a platform where transfers block: one or two
//! buses, single ports, rendezvous thresholds, a WAN with one link,
//! shared-memory nodes, and flow-level fabrics whose admission is gated
//! by ports. Each replay is pinned as a digest of its exact rendering
//! (`render_exact` prints every float round-trip precisely), so any
//! change to a grant time, a tie-break, or an event count fails here —
//! even one that every engine path would share.
//!
//! The digests were recorded from the engine that rescanned every
//! blocked transfer on each release; the wait-list engine reproduces
//! them bit for bit. The three mixed-capacity fat-tree cases were
//! recorded from the solver that ran the full water-fill whenever link
//! capacities differed; the class-chain reshare reproduces them. Nine
//! flow-fabric digests were re-blessed when flows began to settle
//! lazily: only link `bytes` and `busy_secs` totals moved, by at most
//! 4.3e-15 relative, and no runtime or event count changed. The
//! `scale256@fat-tree:16:4` digest was recorded when the totals-only
//! replay first ran on flow fabrics, and `scale2048@bus4` from the
//! engine before it prefetched and kept channels in one map. To re-bless
//! after a deliberate model change, run
//! `OVLP_BLESS=1 cargo test --test grant_order_golden -- --nocapture`
//! and paste the printed table.

use overlap_sim::machine::{render_exact, replay_scale, simulate, Platform, ScaleReport, Topology};
use overlap_sim::trace::{synth, text, MlAllreduce, MlConfig, Trace};
use std::path::PathBuf;

fn fixture(name: &str) -> Trace {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let content = std::fs::read_to_string(&path).unwrap();
    text::parse(&content).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// 64-bit FNV-1a: a stable digest with no dependencies.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Contended platforms, each blocking transfers a different way.
fn platforms() -> Vec<(&'static str, Platform)> {
    let base = Platform::default();
    vec![
        ("bus1", base.with_buses(1)),
        (
            "bus2-in2",
            Platform {
                input_ports: 2,
                ..base.with_buses(2)
            },
        ),
        (
            "bus3-rdv1k",
            Platform {
                eager_threshold_bytes: Some(1024),
                ..base.with_buses(3)
            },
        ),
        (
            "smp2-wan1",
            base.with_buses(2)
                .with_nodes(2, 2000.0, 0.5)
                .with_machines(2, 10.0, 1000.0, 1),
        ),
        (
            "fat-tree:8:2",
            base.with_topology(Topology::FatTree {
                radix: 8,
                oversubscription: 2,
            }),
        ),
        (
            "torus-rdv4k",
            Platform {
                eager_threshold_bytes: Some(4096),
                ..base.with_topology(Topology::Torus { dims: vec![2, 4] })
            },
        ),
    ]
}

/// The fields of a summary replay that depend on the grant order.
fn scale_rendering(r: &ScaleReport) -> String {
    format!(
        "{:?} {} {} {} {} {} {} {} {} {:?}",
        r.runtime,
        r.events_processed,
        r.queue_peak,
        r.transfers,
        r.records_streamed,
        r.records_peak,
        r.msg_slots,
        r.req_slots,
        r.chan_slots,
        r.totals
    )
}

/// Every case as `(name, exact rendering)`.
fn cases() -> Vec<(String, String)> {
    let mut traces: Vec<(String, Trace)> = vec![
        ("sweep3d_4r".to_string(), fixture("sweep3d_4r.trf")),
        ("nas_cg_8r".to_string(), fixture("nas_cg_8r.trf")),
        (
            "nas_cg_8r*8".to_string(),
            synth::tile_ranks(&fixture("nas_cg_8r.trf"), 8),
        ),
    ];
    traces.extend((0..12u64).map(|s| (format!("synth{s}"), synth::generate(s))));
    let ml = MlAllreduce::new(MlConfig::new(64, 7).unwrap());
    let mut out = Vec::new();
    for (pname, p) in platforms() {
        for (tname, t) in &traces {
            if t.nranks() > 8 && matches!(pname, "torus-rdv4k") {
                continue; // the 2x4 torus hosts 8 nodes
            }
            out.push((format!("{tname}@{pname}"), render_exact(&simulate(t, &p))));
        }
        if pname != "torus-rdv4k" {
            let name = format!("ml64@{pname}");
            out.push((name, render_exact(&simulate(&ml, &p))));
        }
    }
    // mixed-capacity fabrics whose flows seldom share a link: the
    // oversubscribed tree's fabric links run at a fraction of the host
    // links' capacity, and the degrade schedule halves the uplinks
    // mid-replay and restores them
    let ft16 = Platform::default().with_topology(Topology::FatTree {
        radix: 16,
        oversubscription: 4,
    });
    for ranks in [64usize, 128] {
        let ml = MlAllreduce::new(MlConfig::new(ranks, 7).unwrap());
        let name = format!("ml{ranks}@fat-tree:16:4");
        out.push((name, render_exact(&simulate(&ml, &ft16))));
    }
    let degraded = Platform::default()
        .with_topology(Topology::FatTree {
            radix: 8,
            oversubscription: 2,
        })
        .with_faults(
            "degrade=0.5@30us:uplink:*;restore@120us:uplink:*"
                .parse()
                .unwrap(),
        );
    out.push((
        "nas_cg_8r@fat-tree:8:2+degrade".to_string(),
        render_exact(&simulate(&fixture("nas_cg_8r.trf"), &degraded)),
    ));
    for buses in [1u32, 4] {
        let ml = MlAllreduce::new(MlConfig::new(256, 3).unwrap());
        let r = replay_scale(&ml, &Platform::default().with_buses(buses)).unwrap();
        out.push((format!("scale256@bus{buses}"), scale_rendering(&r)));
    }
    let ml = MlAllreduce::new(MlConfig::new(256, 3).unwrap());
    let r = replay_scale(&ml, &ft16).unwrap();
    out.push(("scale256@fat-tree:16:4".to_string(), scale_rendering(&r)));
    // large enough that the per-rank state outgrows a core's private
    // cache, where the engine prefetches ahead of each event
    let ml = MlAllreduce::new(MlConfig::new(2048, 3).unwrap());
    let r = replay_scale(&ml, &Platform::default().with_buses(4)).unwrap();
    out.push(("scale2048@bus4".to_string(), scale_rendering(&r)));
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("sweep3d_4r@bus1", 0xe0b99d691a4adf3e),
    ("nas_cg_8r@bus1", 0xc25b34df70e55c77),
    ("nas_cg_8r*8@bus1", 0x14e2a884092f3edd),
    ("synth0@bus1", 0xafd80a144ee939f2),
    ("synth1@bus1", 0xe5006a47a3070daa),
    ("synth2@bus1", 0x4e13574195591879),
    ("synth3@bus1", 0xfec2afca9c2e5f9c),
    ("synth4@bus1", 0x9c71eae7869124d1),
    ("synth5@bus1", 0xbadd689c6720e896),
    ("synth6@bus1", 0x78830fe2ac5d3043),
    ("synth7@bus1", 0xbd6190c7966b32b6),
    ("synth8@bus1", 0x0b542b6669ec6b77),
    ("synth9@bus1", 0x8a0b7815dfe28e8b),
    ("synth10@bus1", 0xaeebcfaf7ce8cd6c),
    ("synth11@bus1", 0x8557c5392140c998),
    ("ml64@bus1", 0xbb990a4ea5a424d5),
    ("sweep3d_4r@bus2-in2", 0x98ff457937f0190f),
    ("nas_cg_8r@bus2-in2", 0x792e7bcab3f341d6),
    ("nas_cg_8r*8@bus2-in2", 0x02beb64c3d0d9b79),
    ("synth0@bus2-in2", 0x2e89ea3a4ea1eaee),
    ("synth1@bus2-in2", 0x3568e5021b44129e),
    ("synth2@bus2-in2", 0x59f8f3a09ff3acb4),
    ("synth3@bus2-in2", 0x84b345fbdbafaad7),
    ("synth4@bus2-in2", 0x9967ac8f4f39121d),
    ("synth5@bus2-in2", 0xd8f5b44ea795da30),
    ("synth6@bus2-in2", 0x56043b7fb7985080),
    ("synth7@bus2-in2", 0x4e69c7f1cd88a5f5),
    ("synth8@bus2-in2", 0x20fa2a95de0bf064),
    ("synth9@bus2-in2", 0x76ec88c5bb152715),
    ("synth10@bus2-in2", 0xac89502dd5641fad),
    ("synth11@bus2-in2", 0x2b2825263c45c750),
    ("ml64@bus2-in2", 0x77b63261a5611e28),
    ("sweep3d_4r@bus3-rdv1k", 0x98ff457937f0190f),
    ("nas_cg_8r@bus3-rdv1k", 0x96d57b322cc7fe35),
    ("nas_cg_8r*8@bus3-rdv1k", 0x7656f94b73a93368),
    ("synth0@bus3-rdv1k", 0x03a22f85314c1c52),
    ("synth1@bus3-rdv1k", 0x2b163c9e6707ca3d),
    ("synth2@bus3-rdv1k", 0x171169836a92daf5),
    ("synth3@bus3-rdv1k", 0xfbc03835ee2aa752),
    ("synth4@bus3-rdv1k", 0xe28560ab4bafb165),
    ("synth5@bus3-rdv1k", 0x3955b476cd5ff3ea),
    ("synth6@bus3-rdv1k", 0x797f9cf1477f994e),
    ("synth7@bus3-rdv1k", 0x937e6b0c801f85ad),
    ("synth8@bus3-rdv1k", 0x4967ead1d3b08c8d),
    ("synth9@bus3-rdv1k", 0x4099633488ca56a2),
    ("synth10@bus3-rdv1k", 0x83e282ffcdd11bd0),
    ("synth11@bus3-rdv1k", 0x62cf61cc02279524),
    ("ml64@bus3-rdv1k", 0xd1701adde0e68559),
    ("sweep3d_4r@smp2-wan1", 0xf5bc89da0535e93d),
    ("nas_cg_8r@smp2-wan1", 0x872c853f07d5a441),
    ("nas_cg_8r*8@smp2-wan1", 0x6b06f8dc89258dd9),
    ("synth0@smp2-wan1", 0xc4eb101ca0d1bdd9),
    ("synth1@smp2-wan1", 0x55930d245c2c26d6),
    ("synth2@smp2-wan1", 0x66af07a4b5afa0cd),
    ("synth3@smp2-wan1", 0x63e753b84f0c4030),
    ("synth4@smp2-wan1", 0x1cda9233ffb2c733),
    ("synth5@smp2-wan1", 0xfe2b9566027db67a),
    ("synth6@smp2-wan1", 0xfdccb0f5e05d65a1),
    ("synth7@smp2-wan1", 0x606976c019c42845),
    ("synth8@smp2-wan1", 0x6f01c980b292f6e2),
    ("synth9@smp2-wan1", 0xd6994b973ae6716c),
    ("synth10@smp2-wan1", 0x8442255943d4f51b),
    ("synth11@smp2-wan1", 0xa2edd1e62781122f),
    ("ml64@smp2-wan1", 0xa5faed47e32b2840),
    ("sweep3d_4r@fat-tree:8:2", 0x6cc8cd3b9ee0d155),
    ("nas_cg_8r@fat-tree:8:2", 0x6e8f5afc61e24ac6),
    ("nas_cg_8r*8@fat-tree:8:2", 0xfbf4ec47dc1dab13),
    ("synth0@fat-tree:8:2", 0x7bd0477ed4a9eb4e),
    ("synth1@fat-tree:8:2", 0xa59f4da929f13a46),
    ("synth2@fat-tree:8:2", 0xe0e641a6dbdf4cdd),
    ("synth3@fat-tree:8:2", 0x7cd4bdd5b145896f),
    ("synth4@fat-tree:8:2", 0xc7c3a055958052ad),
    ("synth5@fat-tree:8:2", 0x71cf32b250d4dc8a),
    ("synth6@fat-tree:8:2", 0x318ff341b6042696),
    ("synth7@fat-tree:8:2", 0x178aecc3a799fb17),
    ("synth8@fat-tree:8:2", 0x8e4df6f451e3fd3d),
    ("synth9@fat-tree:8:2", 0xd14a48719db749f5),
    ("synth10@fat-tree:8:2", 0x45e10d319c713d63),
    ("synth11@fat-tree:8:2", 0x59dc5f58cbecd986),
    ("ml64@fat-tree:8:2", 0x87eda568d5e7caa0),
    ("sweep3d_4r@torus-rdv4k", 0x078a3d7fc6c4df96),
    ("nas_cg_8r@torus-rdv4k", 0x837aece08324062c),
    ("synth0@torus-rdv4k", 0x6d9ab35c3432bd6d),
    ("synth1@torus-rdv4k", 0xdd0ed248da22b774),
    ("synth2@torus-rdv4k", 0xc24e854380ac0e16),
    ("synth3@torus-rdv4k", 0x57a1d11f0b29d2af),
    ("synth4@torus-rdv4k", 0x0e4637f6bcd59e7e),
    ("synth5@torus-rdv4k", 0x3955b476cd5ff3ea),
    ("synth6@torus-rdv4k", 0x65562c8ee3556297),
    ("synth7@torus-rdv4k", 0x7593007badbb5aa1),
    ("synth8@torus-rdv4k", 0x7a89b12a15898396),
    ("synth9@torus-rdv4k", 0xe09a6a6c9ae9823f),
    ("synth10@torus-rdv4k", 0x25eb073cae811eab),
    ("synth11@torus-rdv4k", 0xf4a6756ac857735d),
    ("ml64@fat-tree:16:4", 0x386ccf3ac284021b),
    ("ml128@fat-tree:16:4", 0x5a12ebe18e563377),
    ("nas_cg_8r@fat-tree:8:2+degrade", 0x73c602adfc24f7c3),
    ("scale256@bus1", 0x5a19702ef6629bae),
    ("scale256@bus4", 0x54cda1b763e1c3e2),
    ("scale256@fat-tree:16:4", 0xeeb45dbe53ca10a0),
    ("scale2048@bus4", 0xfc465f967fb7789c),
];

#[test]
fn grant_order_matches_pinned_digests() {
    let got: Vec<(String, u64)> = cases()
        .into_iter()
        .map(|(name, rendering)| (name, fnv(&rendering)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    if std::env::var_os("OVLP_BLESS").is_some() {
        println!("const GOLDEN: &[(&str, u64)] = &[\n{table}];");
        return;
    }
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(
        got, want,
        "grant order moved; if deliberate, re-bless with this table:\n{table}"
    );
}
