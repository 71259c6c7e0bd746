//! Three renderings of one [`RaceReport`]: machine (JSON), terminal
//! (ANSI timeline), and shareable (self-contained single-file HTML).
//!
//! All three carry the same facts; none is derived from another. The
//! JSON is the `nodefz-race-report-v1` contract other tools consume, the
//! ANSI rendering is what `campaign explain` prints, and the HTML file
//! embeds its own styling so it can be attached to a bug tracker as-is.

use nodefz_hb::EventRef;
use nodefz_obs::JsonWriter;

use crate::explain::RaceReport;

/// Schema tag of the JSON rendering.
pub const RACE_REPORT_SCHEMA: &str = "nodefz-race-report-v1";

/// Width of the ANSI timeline's decision axis, in columns.
const AXIS: usize = 48;

fn chain_json(w: &mut JsonWriter, key: &str, chain: &[EventRef]) {
    w.key(key);
    w.begin_array();
    for hop in chain {
        w.begin_object();
        w.field_u64("event", u64::from(hop.event));
        w.field_str("kind", &hop.kind);
        w.field_u64("decisions", hop.decisions);
        w.end_object();
    }
    w.end_array();
}

fn event_json(w: &mut JsonWriter, key: &str, ev: &EventRef) {
    w.key(key);
    w.begin_object();
    w.field_u64("event", u64::from(ev.event));
    w.field_str("kind", &ev.kind);
    w.field_u64("decisions", ev.decisions);
    w.end_object();
}

/// Renders the `nodefz-race-report-v1` document.
pub fn to_json(r: &RaceReport) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", RACE_REPORT_SCHEMA);
    w.field_str("app", &r.app);
    w.field_u64("env_seed", r.env_seed);
    w.key("failure");
    w.begin_object();
    w.field_str("site", &r.failure_site);
    w.field_u64("kinds", u64::from(r.kinds));
    w.end_object();
    w.key("race");
    w.begin_object();
    w.field_str("site", &r.race.site);
    w.field_str("class", r.race.class.label());
    event_json(&mut w, "a", &r.race.a);
    event_json(&mut w, "b", &r.race.b);
    w.field_u64("cut", r.race.cut);
    w.field_u64("chain_cut", r.race.chain_cut);
    w.key("flip_cuts");
    w.begin_array();
    for cut in &r.race.flip_cuts {
        w.u64(*cut);
    }
    w.end_array();
    w.end_object();
    w.key("flip");
    w.begin_object();
    w.field_u64("cut", r.flip.cut);
    w.field_u64("prefix_cut", r.flip.prefix_cut);
    w.key("ladder");
    w.begin_array();
    for cut in &r.flip.ladder {
        w.u64(*cut);
    }
    w.end_array();
    w.field_bool("on_passing_schedule", r.flip.on_passing_schedule);
    w.end_object();
    w.key("chains");
    w.begin_object();
    chain_json(&mut w, "a", &r.chain_a);
    chain_json(&mut w, "b", &r.chain_b);
    w.end_object();
    w.key("schedule");
    w.begin_object();
    w.field_u64("events", r.events as u64);
    w.field_u64("accesses", r.accesses as u64);
    w.field_str("failing_key", &r.failing_key);
    w.end_object();
    w.key("passing");
    w.begin_object();
    w.field_str("key", &r.passing.key);
    w.field_u64("sampled", r.passing.sampled);
    w.field_u64("distinct", r.passing.distinct);
    w.field_u64("common_prefix", r.passing.common_prefix as u64);
    w.field_u64("failing_len", r.passing.failing_len as u64);
    w.field_u64("passing_len", r.passing.passing_len as u64);
    w.key("divergence");
    match &r.passing.divergence {
        Some(d) => {
            w.begin_object();
            w.field_u64("index", d.index as u64);
            w.field_str("failing", &d.failing.to_string());
            w.field_str("passing", &d.passing.to_string());
            w.end_object();
        }
        None => w.null(),
    }
    w.end_object();
    w.key("check");
    match &r.check {
        Some(c) => {
            w.begin_object();
            w.field_u64("attempted", c.attempted);
            w.field_bool("manifested", c.manifested);
            w.field_u64("execs", c.execs);
            w.field_u64("cut", c.cut);
            w.end_object();
        }
        None => w.null(),
    }
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

/// Wraps `s` in an ANSI SGR sequence when `color` is on.
fn paint(code: &str, s: &str, color: bool) -> String {
    if color {
        format!("\x1b[{code}m{s}\x1b[0m")
    } else {
        s.to_string()
    }
}

/// One timeline lane: the hop's marker placed proportionally on the
/// decision axis.
fn lane(label: &str, decisions: u64, max: u64, marker: char) -> String {
    let pos = if max == 0 {
        0
    } else {
        ((decisions as usize) * (AXIS - 1)) / (max as usize)
    };
    let mut axis = String::with_capacity(AXIS);
    for i in 0..AXIS {
        axis.push(if i == pos { marker } else { '\u{2500}' });
    }
    format!("  {label:<22} {axis} dec {decisions}")
}

/// Renders the terminal report: facts up top, then both causal chains on
/// one shared decision axis, the flip cut, and the passing-class diff.
pub fn render_ansi(r: &RaceReport, color: bool) -> String {
    let mut out = String::new();
    let class = r.race.class.label();
    out.push_str(&format!(
        "{}: {} {} at {} (env seed {})\n",
        paint("1", "race report", color),
        r.app,
        paint("1;31", class, color),
        paint("1", &r.race.site, color),
        r.env_seed,
    ));
    out.push_str(&format!(
        "  failure site: {}  [kind fingerprint {:#010x}]\n",
        r.failure_site, r.kinds
    ));
    out.push_str(&format!(
        "  failing schedule: {} events, {} accesses, HB class {}\n",
        r.events, r.accesses, r.failing_key
    ));

    let max_dec = r
        .chain_a
        .iter()
        .chain(&r.chain_b)
        .map(|h| h.decisions)
        .max()
        .unwrap_or(0)
        .max(r.race.cut);
    out.push_str(&format!(
        "\n  causal timeline (decision axis 0..={max_dec}):\n"
    ));
    // Chains print root first: causality reads left-to-right, top-down.
    for (name, chain, code) in [("a", &r.chain_a, "36"), ("b", &r.chain_b, "35")] {
        for (i, hop) in chain.iter().rev().enumerate() {
            let racing = i + 1 == chain.len();
            let marker = if racing { '\u{25cf}' } else { '\u{25cb}' };
            let label = format!("{name} {} #{}", hop.kind, hop.event);
            let mut line = lane(&label, hop.decisions, max_dec, marker);
            if racing {
                line.push_str(&format!("  {}", paint("1;31", "RACE", color)));
            }
            out.push_str(&paint(code, &line, color));
            out.push('\n');
        }
    }
    // The flip cuts index the schedule the directed replay runs over —
    // usually the nearest *passing* schedule, a different decision axis
    // than the failing-chain timeline above, so they get prose, not a lane.
    let schedule = if r.flip.on_passing_schedule {
        "nearest passing"
    } else {
        "failing"
    };
    let flip = format!(
        "  directed flip: defer the racing dispatch at decision {} of the {} schedule",
        r.flip.cut, schedule,
    );
    out.push_str(&paint("33", &flip, color));
    out.push('\n');
    out.push_str(&format!(
        "  flip ladder: {} (prefix cut {})\n",
        r.flip
            .ladder
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        r.flip.prefix_cut,
    ));

    out.push_str(&format!(
        "\n  nearest passing HB class {} ({} of {} sampled schedule(s) passed):\n",
        r.passing.key, r.passing.distinct, r.passing.sampled
    ));
    out.push_str(&format!(
        "    shares {} decision(s) with the failing schedule ({} failing / {} passing total)\n",
        r.passing.common_prefix, r.passing.failing_len, r.passing.passing_len
    ));
    match &r.passing.divergence {
        Some(d) => out.push_str(&format!(
            "    diverges at decision {}: failing took {}, passing took {}\n",
            d.index, d.failing, d.passing
        )),
        None => out.push_str("    one schedule is a prefix of the other\n"),
    }

    if let Some(c) = &r.check {
        let line = if c.manifested {
            paint(
                "32",
                &format!(
                    "  check: bug re-manifested on directed replay {} (flip cut {})",
                    c.execs, c.cut
                ),
                color,
            )
        } else {
            paint(
                "31",
                &format!(
                    "  check: bug did NOT re-manifest in {} directed replay(s)",
                    c.attempted
                ),
                color,
            )
        };
        out.push('\n');
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Minimal HTML escaping for text nodes and attribute values.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(ch),
        }
    }
    out
}

fn html_chain(out: &mut String, name: &str, class: &str, chain: &[EventRef], max: u64) {
    out.push_str(&format!(
        "<h3>chain {}</h3><div class=\"lanes\">",
        esc(name)
    ));
    for (i, hop) in chain.iter().rev().enumerate() {
        let racing = i + 1 == chain.len();
        let pct = if max == 0 {
            0.0
        } else {
            (hop.decisions as f64) * 100.0 / (max as f64)
        };
        out.push_str(&format!(
            "<div class=\"lane\"><span class=\"label\">{} #{} <small>dec {}</small></span>\
             <span class=\"track\"><span class=\"dot {}{}\" style=\"left:{:.1}%\"></span></span></div>",
            esc(&hop.kind),
            hop.event,
            hop.decisions,
            esc(class),
            if racing { " racing" } else { "" },
            pct,
        ));
    }
    out.push_str("</div>");
}

/// Renders the self-contained single-file HTML report.
pub fn render_html(r: &RaceReport) -> String {
    let class = r.race.class.label();
    let max_dec = r
        .chain_a
        .iter()
        .chain(&r.chain_b)
        .map(|h| h.decisions)
        .max()
        .unwrap_or(0)
        .max(r.race.cut);
    let mut out = String::new();
    out.push_str(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>nodefz race report</title><style>\
         body{font:14px/1.5 ui-monospace,monospace;margin:2em auto;max-width:60em;\
              color:#1a1a1a;background:#fdfdfd}\
         h1{font-size:1.3em} h3{margin:1em 0 .3em} small{color:#777}\
         .badge{display:inline-block;padding:.1em .5em;border-radius:.3em;\
                background:#c62828;color:#fff;font-weight:bold}\
         .ok{background:#2e7d32} .fail{background:#c62828}\
         table{border-collapse:collapse;margin:.5em 0}\
         td,th{border:1px solid #ddd;padding:.2em .6em;text-align:left}\
         .lanes{border-left:1px solid #bbb}\
         .lane{display:flex;align-items:center;margin:.15em 0}\
         .label{width:16em;flex:none}\
         .track{position:relative;flex:1;height:1em;background:#eee;border-radius:.5em}\
         .dot{position:absolute;top:.15em;width:.7em;height:.7em;border-radius:50%}\
         .a{background:#00838f} .b{background:#8e24aa}\
         .racing{outline:2px solid #c62828}\
         </style></head><body>\n",
    );
    out.push_str(&format!(
        "<h1>race report: {} <span class=\"badge\">{}</span> at {}</h1>\n",
        esc(&r.app),
        esc(class),
        esc(&r.race.site),
    ));
    out.push_str(&format!(
        "<table>\
         <tr><th>env seed</th><td>{}</td></tr>\
         <tr><th>failure site</th><td>{}</td></tr>\
         <tr><th>failing HB class</th><td>{}</td></tr>\
         <tr><th>schedule</th><td>{} events, {} accesses</td></tr>\
         <tr><th>racing pair</th><td>{} #{} (dec {}) &#x00d7; {} #{} (dec {})</td></tr>\
         <tr><th>directed flip</th><td>decision {} of the {} schedule \
         (ladder {}; prefix cut {})</td></tr>\
         </table>\n",
        r.env_seed,
        esc(&r.failure_site),
        esc(&r.failing_key),
        r.events,
        r.accesses,
        esc(&r.race.a.kind),
        r.race.a.event,
        r.race.a.decisions,
        esc(&r.race.b.kind),
        r.race.b.event,
        r.race.b.decisions,
        r.flip.cut,
        if r.flip.on_passing_schedule {
            "nearest passing"
        } else {
            "failing"
        },
        r.flip
            .ladder
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        r.flip.prefix_cut,
    ));
    out.push_str(&format!(
        "<h2>causal timeline <small>decision axis 0..={max_dec}</small></h2>\n"
    ));
    html_chain(&mut out, "a", "a", &r.chain_a, max_dec);
    html_chain(&mut out, "b", "b", &r.chain_b, max_dec);
    out.push_str(&format!(
        "<h2>nearest passing HB class</h2>\
         <p>class <code>{}</code> — {} of {} sampled schedule(s) passed. \
         Shares {} decision(s) with the failing schedule \
         ({} failing / {} passing total).{}</p>\n",
        esc(&r.passing.key),
        r.passing.distinct,
        r.passing.sampled,
        r.passing.common_prefix,
        r.passing.failing_len,
        r.passing.passing_len,
        match &r.passing.divergence {
            Some(d) => format!(
                " Diverges at decision {}: failing took <b>{}</b>, passing took <b>{}</b>.",
                d.index,
                esc(&d.failing.to_string()),
                esc(&d.passing.to_string())
            ),
            None => " One schedule is a prefix of the other.".to_string(),
        },
    ));
    if let Some(c) = &r.check {
        out.push_str(&format!(
            "<h2>check</h2><p><span class=\"badge {}\">{}</span> {}</p>\n",
            if c.manifested { "ok" } else { "fail" },
            if c.manifested {
                "re-manifested"
            } else {
                "not reproduced"
            },
            if c.manifested {
                format!(
                    "directed replay {} of the flip at cut {} manifested the recorded bug.",
                    c.execs, c.cut
                )
            } else {
                format!(
                    "{} directed replay(s) of the flip did not manifest the recorded bug.",
                    c.attempted
                )
            },
        ));
    }
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn html_escaping_neutralizes_markup() {
        assert_eq!(esc("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&#39;");
    }

    #[test]
    fn lanes_scale_to_the_axis() {
        let l = lane("x", 0, 100, '\u{25cf}');
        assert!(l.contains('\u{25cf}'));
        let end = lane("x", 100, 100, '\u{25cf}');
        assert!(end.trim_end().ends_with("dec 100"));
    }
}
