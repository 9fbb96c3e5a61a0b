//! The full tool pipeline: DSL text → analysis → deployment → switch
//! configs → emulated packets.
//!
//! Two programs arrive as P4-flavoured source, get merged and deployed,
//! the backend compiles per-switch configurations with piggyback
//! contracts, and the emulator proves the distributed pipeline processes
//! packets exactly like a single logical switch would.
//!
//! Run with: `cargo run --example dsl_pipeline`

use hermes::backend::{config::generate, emulator};
use hermes::core::{verify, Epsilon, GreedyHeuristic, Solver};
use hermes::dataplane::parser::parse_programs;
use hermes::net::{Network, Switch};
use hermes::tdg::{merge_all, AnalysisMode, Tdg};

const SOURCE: &str = r#"
# Program 1: flow accounting — hash the 5-tuple, bump a counter.
program accounting {
    header ipv4.src: 4;
    header ipv4.dst: 4;
    header l4.sport: 2;
    header l4.dport: 2;
    metadata meta.flow_idx: 4;
    metadata meta.count: 4;

    table flow_hash {
        actions { go { meta.flow_idx = hash(ipv4.src, ipv4.dst, l4.sport, l4.dport); } }
        capacity 1;
        resource 0.6;
    }
    table flow_count {
        key { meta.flow_idx: exact; }
        actions { bump { meta.count = register(meta.flow_idx); } }
        resource 1.2;
    }
}

# Program 2: heavy-hitter policing gated on the count.
program policer {
    metadata meta.verdict: 1;

    table hh_detect {
        key { meta.count: exact; }
        actions { mark { meta.verdict = const(); } }
        resource 0.8;
    }
    table police {
        key { meta.verdict: exact; }
        actions { pass { forward(meta.verdict); } kill { drop(); } }
        resource 0.6;
    }
    gate hh_detect -> police;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the DSL into programs.
    let programs = parse_programs(SOURCE)?;
    println!("parsed {} programs: {}", programs.len(), {
        programs.iter().map(|p| p.name().to_owned()).collect::<Vec<_>>().join(", ")
    });

    // 2. Analyze: per-program TDGs, merged with metadata amounts.
    let tdgs: Vec<Tdg> =
        programs.iter().map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral)).collect();
    let tdg = merge_all(tdgs);
    println!("merged TDG: {tdg}");

    // 3. Deploy on two small switches (forcing coordination).
    let mut net = Network::new();
    let small = |name: &str| Switch { stages: 4, stage_capacity: 0.6, ..Switch::tofino(name) };
    let s1 = net.add_switch(small("edge"));
    let s2 = net.add_switch(small("core"));
    net.add_link(s1, s2, 25.0)?;
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps)?;
    assert!(verify(&tdg, &net, &plan, &eps).is_empty());
    println!(
        "deployed across {} switches, per-packet overhead {} B",
        plan.occupied_switch_count(),
        plan.max_inter_switch_bytes(&tdg)
    );

    // 4. Compile backend artifacts.
    let artifacts = generate(&tdg, &net, &plan);
    for config in artifacts.switches.values() {
        println!("  {config}");
        for (next, fields) in &config.appends {
            let names: Vec<&str> = fields.iter().map(|f| f.name()).collect();
            println!(
                "    appends -> {}: {:?} ({} B)",
                net.switch(*next).name,
                names,
                config.append_bytes(*next)
            );
        }
    }

    // 5. Emulate packets end to end and check semantic equivalence.
    let mut checked = 0;
    for seed in 0..50u64 {
        assert!(
            emulator::equivalent(&tdg, &plan, &artifacts, emulator::test_packet(seed)),
            "packet {seed} diverged"
        );
        checked += 1;
    }
    let trace = emulator::run_distributed(&tdg, &plan, &artifacts, emulator::test_packet(0));
    println!(
        "emulated {checked} packets: distributed == single-switch; max on-wire metadata {} B",
        trace.max_wire_bytes()
    );
    Ok(())
}
