//! A blocking client for the server's line protocol, and its reply-frame
//! parser.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

/// One reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A single `OK ...` line (the text after `OK `), or `PONG`.
    Ok(String),
    /// `OK <n> rows (fresh|cached)`, a header line, `n` rows, `END`.
    Table {
        cached: bool,
        header: String,
        rows: Vec<String>,
    },
    /// `ERR <message>`.
    Err(String),
    /// A free-text block closed by `END` (the `METRICS` verb).
    Text(Vec<String>),
}

fn read_line(r: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-reply",
        ));
    }
    if line.ends_with('\n') {
        line.pop();
    }
    Ok(line)
}

fn lines_until_end(r: &mut impl BufRead, first: Option<String>) -> io::Result<Vec<String>> {
    let mut lines: Vec<String> = first.into_iter().collect();
    loop {
        let line = read_line(r)?;
        if line == "END" {
            return Ok(lines);
        }
        lines.push(line);
    }
}

/// Parse `<n> rows (fresh|cached)`, the tail of a result-set status line.
fn table_status(rest: &str) -> Option<(usize, bool)> {
    let (n, tail) = rest.split_once(" rows (")?;
    let cached = match tail {
        "cached)" => true,
        "fresh)" => false,
        _ => return None,
    };
    Some((n.parse().ok()?, cached))
}

/// Read one reply frame.
pub fn read_reply(r: &mut impl BufRead) -> io::Result<Reply> {
    let first = read_line(r)?;
    if let Some(msg) = first.strip_prefix("ERR ") {
        return Ok(Reply::Err(msg.to_string()));
    }
    if first == "PONG" {
        return Ok(Reply::Ok(first));
    }
    if let Some(rest) = first.strip_prefix("OK ") {
        let Some((n, cached)) = table_status(rest) else {
            return Ok(Reply::Ok(rest.to_string()));
        };
        let mut body = lines_until_end(r, None)?;
        if body.is_empty() || body.len() - 1 != n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("result set announced {n} rows, carried {}", body.len()),
            ));
        }
        let header = body.remove(0);
        return Ok(Reply::Table {
            cached,
            header,
            rows: body,
        });
    }
    Ok(Reply::Text(lines_until_end(r, Some(first))?))
}

/// One connection: requests out, reply frames in.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect and consume the server's greeting line.
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let banner = read_line(&mut reader)?;
        if !banner.starts_with("PIP server ready") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected greeting: {banner}"),
            ));
        }
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Send raw request text (one or more `\n`-terminated lines) in one write.
    pub fn send(&mut self, text: &str) -> io::Result<()> {
        self.writer.write_all(text.as_bytes())
    }

    pub fn reply(&mut self) -> io::Result<Reply> {
        read_reply(&mut self.reader)
    }

    /// One request line, one reply.
    pub fn call(&mut self, line: &str) -> io::Result<Reply> {
        self.send(&format!("{line}\n"))?;
        self.reply()
    }

    /// One request line that must answer with a single `OK`/table, else an error.
    pub fn must(&mut self, line: &str) -> io::Result<Reply> {
        match self.call(line)? {
            Reply::Err(e) => Err(io::Error::other(format!(
                "{}: ERR {e}",
                line.chars().take(60).collect::<String>()
            ))),
            ok => Ok(ok),
        }
    }

    /// `SET SEED <seed>` plus one statement, pipelined in one write; the
    /// statement's reply is returned (the `SET` must succeed).
    pub fn seeded_query(&mut self, seed: u64, sql: &str) -> io::Result<Reply> {
        self.send(&seeded_request(seed, sql))?;
        match self.reply()? {
            Reply::Ok(_) => self.reply(),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("SET SEED answered {other:?}"),
            )),
        }
    }
}

/// The wire text of one request: `SET SEED <seed>` and the statement.
pub fn seeded_request(seed: u64, sql: &str) -> String {
    format!("SET SEED {seed}\nQUERY {sql}\n")
}

/// A parsed `METRICS` scrape: every sample line as `(name-with-labels, value)`.
pub struct Scrape(Vec<(String, f64)>);

impl Scrape {
    pub fn parse(lines: &[String]) -> Scrape {
        Scrape(
            lines
                .iter()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (name, value) = l.rsplit_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// A sample's value, 0 when the family is absent (a counter nothing
    /// has touched yet is not registered).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// `later - earlier` for a counter; for a histogram, the mean over the
/// interval in seconds per observation.
pub struct ScrapeDelta<'a> {
    pub earlier: &'a Scrape,
    pub later: &'a Scrape,
}

impl ScrapeDelta<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        self.later.get(name) - self.earlier.get(name)
    }

    pub fn histogram_mean(&self, family: &str) -> f64 {
        let count = self.counter(&format!("{family}_count"));
        if count <= 0.0 {
            0.0
        } else {
            self.counter(&format!("{family}_sum")) / count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Vec<Reply> {
        let mut cur = Cursor::new(text.as_bytes().to_vec());
        let mut out = Vec::new();
        while (cur.position() as usize) < text.len() {
            out.push(read_reply(&mut cur).expect("frame"));
        }
        out
    }

    #[test]
    fn parses_result_sets_single_lines_and_errors_back_to_back() {
        let frames = parse(
            "OK seed=7\n\
             OK 2 rows (fresh)\ng\texpected_sum(x)\tconf()\n'g0'\t6.2\t0.42\n'g1'\t1.0\t0.5\nEND\n\
             ERR busy: 256 queries in flight\n\
             OK 0 rows (cached)\n\nEND\n\
             PONG\n\
             OK checkpoint generation=3\n",
        );
        assert_eq!(
            frames,
            vec![
                Reply::Ok("seed=7".into()),
                Reply::Table {
                    cached: false,
                    header: "g\texpected_sum(x)\tconf()".into(),
                    rows: vec!["'g0'\t6.2\t0.42".into(), "'g1'\t1.0\t0.5".into()],
                },
                Reply::Err("busy: 256 queries in flight".into()),
                Reply::Table {
                    cached: true,
                    header: String::new(),
                    rows: vec![],
                },
                Reply::Ok("PONG".into()),
                Reply::Ok("checkpoint generation=3".into()),
            ]
        );
    }

    #[test]
    fn a_row_count_that_disagrees_with_the_body_is_an_error() {
        let mut cur = Cursor::new(b"OK 2 rows (fresh)\nh\nonly\nEND\n".to_vec());
        assert_eq!(
            read_reply(&mut cur).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn a_truncated_frame_is_an_eof_error() {
        let mut cur = Cursor::new(b"OK 1 rows (fresh)\nh\nrow\n".to_vec());
        assert_eq!(
            read_reply(&mut cur).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn metrics_text_parses_into_counters_and_histogram_means() {
        let frames = parse(
            "# HELP pip_server_rejected_total x\n# TYPE pip_server_rejected_total counter\n\
             pip_server_rejected_total 3\n\
             pip_server_slice_seconds_bucket{le=\"+Inf\"} 4\n\
             pip_server_slice_seconds_sum 0.5\npip_server_slice_seconds_count 4\nEND\n",
        );
        let Reply::Text(lines) = &frames[0] else {
            panic!("{frames:?}")
        };
        let s = Scrape::parse(lines);
        assert_eq!(s.get("pip_server_rejected_total"), 3.0);
        assert_eq!(s.get("pip_server_slice_seconds_bucket{le=\"+Inf\"}"), 4.0);
        assert_eq!(s.get("absent_total"), 0.0);
        let zero = Scrape::parse(&[]);
        let d = ScrapeDelta {
            earlier: &zero,
            later: &s,
        };
        assert_eq!(d.counter("pip_server_rejected_total"), 3.0);
        assert_eq!(d.histogram_mean("pip_server_slice_seconds"), 0.125);
        assert_eq!(d.histogram_mean("absent_seconds"), 0.0);
    }
}
