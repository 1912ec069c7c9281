//! Provider autonomy in action: a training job survives a kill-switch, an
//! emergency departure, and migrates back when the provider returns.
//!
//!     cargo run --release --example provider_churn

use gpunion_agent::rest;
use gpunion_core::{PlatformConfig, Scenario};
use gpunion_des::{SimDuration, SimTime};
use gpunion_gpu::{GpuModel, ServerSpec};
use gpunion_protocol::{HttpRequest, Method};
use gpunion_workload::{ModelClass, TrainingJobSpec};

fn main() {
    let specs = vec![
        ServerSpec::workstation("stable", GpuModel::Rtx3090),
        ServerSpec::workstation("volunteer", GpuModel::Rtx3090),
    ];
    let mut s = Scenario::new(PlatformConfig::default(), &specs);
    let (stable, volunteer) = (s.hosts()[0], s.hosts()[1]);

    let mut job = TrainingJobSpec::new(ModelClass::CnnLarge, 60_000); // hours
    job.checkpoint_interval = SimDuration::from_mins(5);
    s.submit_training_at(SimTime::from_secs(5), 0, job);

    // 20 min in, the owner of the stable machine, where the job runs,
    // takes it back: the agent's kill-switch, over its REST API. The job
    // restarts on the volunteer from its last checkpoint.
    s.run_until(SimTime::from_secs(1200));
    s.act(|w, now| {
        let agent = w.agent_mut(stable).expect("every host runs an agent");
        let (resp, mut actions) =
            rest::handle(agent, now, &HttpRequest::new(Method::Post, "/kill-switch"));
        println!(
            "[{now}] stable machine's owner hits POST /kill-switch ({} {})",
            resp.status, resp.reason
        );
        w.apply_agent_actions(now, stable, &mut actions);
    });
    // 40 min in, the volunteer's owner yanks the machine (emergency); the
    // job moves back to the stable machine.
    s.run_until(SimTime::from_secs(2400));
    s.act(|w, now| {
        println!("[{now}] volunteer pulls the plug (emergency departure)");
        w.emergency_departure(now, volunteer);
    });
    // They return 30 minutes later, and the job migrates back to them.
    s.run_until(SimTime::from_secs(2400 + 1800));
    s.act(|w, now| {
        println!("[{now}] volunteer returns");
        w.provider_return(now, volunteer);
    });

    s.run_until(SimTime::from_secs(8 * 3600));

    let job = s.job_of(0).unwrap();
    println!("\njob event log:");
    for (t, e) in &s.world.stats.job_log[&job] {
        println!("  {t}  {e:?}");
    }
    for d in &s.world.stats.displacements {
        println!(
            "displaced at {} → restore from seq {:?}, restarted {:?}, migrated back: {}",
            d.at, d.restore_seq, d.restarted_at, d.migrated_back
        );
    }
    println!("jobs completed: {}", s.world.stats.jobs_completed);
}
