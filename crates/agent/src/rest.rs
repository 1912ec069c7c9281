//! The agent's local REST API — the provider's control panel.
//!
//! §3.4: "The agent exposes REST APIs for resource advertisement, workload
//! lifecycle management, and emergency controls while maintaining absolute
//! provider authority through 'kill-switch' functionality."
//!
//! Endpoints:
//!
//! | Method | Path               | Effect                                   |
//! |--------|--------------------|------------------------------------------|
//! | GET    | `/status`          | Agent phase, workload count, GPU summary  |
//! | GET    | `/metrics`         | Prometheus exposition                     |
//! | POST   | `/kill-switch`     | Terminate every guest workload instantly  |
//! | POST   | `/pause`           | Stop accepting new allocations            |
//! | POST   | `/resume`          | Resume accepting                          |
//! | POST   | `/depart?mode=graceful\|emergency` | Leave the platform        |
//! | DELETE | `/workloads/{id}`  | Kill one workload (404 if not hosted)     |

use crate::agent::{Action, Agent, AgentPhase};
use gpunion_des::SimTime;
use gpunion_protocol::{DepartureMode, HttpRequest, HttpResponse, JobId, KillReason, Method};

/// Dispatch an HTTP request against the agent. Returns the response plus
/// any platform actions the provider's command triggered.
pub fn handle(agent: &mut Agent, now: SimTime, req: &HttpRequest) -> (HttpResponse, Vec<Action>) {
    match (req.method, req.path.as_str()) {
        (Method::Get, "/status") => (status_response(agent, now), Vec::new()),
        (Method::Get, "/metrics") => (
            HttpResponse {
                status: 200,
                reason: "OK",
                body: agent.metrics().render().into_bytes(),
                content_type: "text/plain; version=0.0.4",
            },
            Vec::new(),
        ),
        (Method::Post, "/kill-switch") => {
            let actions = agent.kill_switch(now);
            (
                HttpResponse::ok_json(format!(
                    "{{\"killed\":true,\"remaining_workloads\":{}}}",
                    agent.workload_count()
                )),
                actions,
            )
        }
        (Method::Post, "/pause") => {
            let actions = agent.set_paused(true);
            match agent.phase() {
                AgentPhase::Paused => (HttpResponse::ok_json("{\"paused\":true}"), actions),
                p => (
                    HttpResponse::conflict(&format!("cannot pause in phase {p:?}")),
                    actions,
                ),
            }
        }
        (Method::Post, "/resume") => {
            let actions = agent.set_paused(false);
            match agent.phase() {
                AgentPhase::Active => (HttpResponse::ok_json("{\"paused\":false}"), actions),
                p => (
                    HttpResponse::conflict(&format!("cannot resume in phase {p:?}")),
                    actions,
                ),
            }
        }
        (Method::Post, "/depart") => {
            let mode = match parse_mode(&req.query, agent) {
                Ok(m) => m,
                Err(resp) => return (resp, Vec::new()),
            };
            if matches!(agent.phase(), AgentPhase::Departing | AgentPhase::Departed) {
                return (
                    HttpResponse::conflict("departure already in progress"),
                    Vec::new(),
                );
            }
            let actions = agent.depart(now, mode);
            (
                HttpResponse::accepted(format!("{{\"departing\":\"{:?}\"}}", mode)),
                actions,
            )
        }
        (Method::Delete, path) if path.starts_with("/workloads/") => {
            match path["/workloads/".len()..].parse::<u64>() {
                Ok(id) if agent.workload_jobs().any(|j| j == JobId(id)) => {
                    let mut actions = Vec::new();
                    agent.kill_workload(
                        now,
                        JobId(id),
                        KillReason::ProviderKillSwitch,
                        &mut actions,
                    );
                    (HttpResponse::ok_json("{\"killed\":true}"), actions)
                }
                Ok(_) => (HttpResponse::not_found(), Vec::new()),
                Err(_) => (HttpResponse::bad_request("bad workload id"), Vec::new()),
            }
        }
        _ => (HttpResponse::not_found(), Vec::new()),
    }
}

fn parse_mode(query: &str, agent: &Agent) -> Result<DepartureMode, HttpResponse> {
    for pair in query.split('&') {
        if let Some(("mode", v)) = pair.split_once('=') {
            return match v {
                "graceful" => Ok(DepartureMode::Graceful {
                    grace_secs: agent.config().departure_grace.as_secs() as u32,
                }),
                "emergency" => Ok(DepartureMode::Emergency),
                other => Err(HttpResponse::bad_request(&format!(
                    "unknown departure mode '{other}'"
                ))),
            };
        }
    }
    Err(HttpResponse::bad_request(
        "missing mode=graceful|emergency query parameter",
    ))
}

fn status_response(agent: &mut Agent, now: SimTime) -> HttpResponse {
    let telemetry = agent.server_mut().telemetry(now);
    let gpu_lines: Vec<String> = telemetry
        .iter()
        .enumerate()
        .map(|(i, t)| {
            format!(
                "{{\"gpu\":{i},\"mem_used\":{},\"mem_total\":{},\"util\":{:.2},\"temp_c\":{:.1}}}",
                t.memory_used, t.memory_total, t.utilization, t.temperature_c
            )
        })
        .collect();
    HttpResponse::ok_json(format!(
        "{{\"phase\":\"{:?}\",\"workloads\":{},\"gpus\":[{}]}}",
        agent.phase(),
        agent.workload_count(),
        gpu_lines.join(",")
    ))
}
