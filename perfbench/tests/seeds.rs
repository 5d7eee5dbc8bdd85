//! The seed contract: the same seed gives the same inputs and identical
//! simulated metrics; a different seed gives different inputs.

use std::path::PathBuf;

use tlbsim_perfbench::spans::Tracer;
use tlbsim_perfbench::{grid, mix, replay, run_batch, serve, Ctx, Outcome};

const SIMULATED: [&str; 3] = ["sim_accuracy", "sim_miss_rate", "sim_cycles_per_access"];

fn ctx(test: &str, run: usize, seed: u64, seconds: f64) -> Ctx {
    // Relative, so socket paths stay short.
    let out_dir = PathBuf::from(".bench_out").join(format!("test-{test}-{run}"));
    std::fs::create_dir_all(&out_dir).expect("scratch directory");
    Ctx {
        seed,
        seconds,
        tracer: Tracer::new(false),
        out_dir,
    }
}

fn assert_repeatable(test: &str, seconds: f64, run: impl Fn(&mut Ctx) -> Result<Outcome, String>) {
    let outcomes: Vec<Outcome> = (0..2)
        .map(|i| run(&mut ctx(test, i, 7, seconds)).expect("run succeeds"))
        .collect();
    let other = run(&mut ctx(test, 2, 8, seconds)).expect("run succeeds");
    for o in outcomes.iter().chain([&other]) {
        assert!(
            o.tally.attempted > 0 && o.tally.failed == 0,
            "{test}: {:?}",
            o.tally
        );
    }
    assert_eq!(
        outcomes[0].digest, outcomes[1].digest,
        "{test}: same seed, same inputs"
    );
    assert_ne!(
        outcomes[0].digest, other.digest,
        "{test}: new seed, new inputs"
    );
    for name in SIMULATED {
        let (a, b) = (outcomes[0].metrics.get(name), outcomes[1].metrics.get(name));
        assert!(a.is_some(), "{test}: {name} reported");
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "{test}: {name} repeats exactly"
        );
    }
}

#[test]
fn grid_seeds() {
    assert_repeatable("grid", 0.0, |c| run_batch(c, grid::setup));
}

#[test]
fn replay_seeds() {
    assert_repeatable("replay", 0.0, |c| run_batch(c, replay::setup));
}

#[test]
fn mix_seeds() {
    assert_repeatable("mix", 0.0, |c| run_batch(c, mix::setup));
}

#[test]
fn serve_seeds() {
    assert_repeatable("serve", 2.0, serve::run);
}

#[test]
fn seeds_move_the_grid_models() {
    assert_eq!(grid::offsets(1), grid::offsets(1));
    assert_ne!(grid::offsets(1), grid::offsets(2));
}
