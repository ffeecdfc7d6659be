//! The load generator's side of the wire: a keep-alive HTTP/1.1 client,
//! a small JSON reader for the replies, and the `triq-cli serve` child
//! process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One persistent connection.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Sends one request; a broken keep-alive connection is re-opened
    /// once. Transport errors come back as status 0.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Reply {
        for _ in 0..2 {
            match self.try_send(method, path, body) {
                Ok(r) => return r,
                Err(_) => self.stream = None,
            }
        }
        Reply {
            status: 0,
            body: String::new(),
        }
    }

    pub fn post(&mut self, path: &str, body: &str) -> Reply {
        self.send("POST", path, body)
    }

    pub fn get(&mut self, path: &str) -> Reply {
        self.send("GET", path, "")
    }

    fn try_send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(BufReader::new(s));
        }
        let r = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let w = r.get_mut();
        w.write_all(head.as_bytes())?;
        w.write_all(body.as_bytes())?;
        w.flush()?;
        let mut line = String::new();
        r.read_line(&mut line)?;
        let status = line.split_whitespace().nth(1).and_then(|s| s.parse().ok());
        let status: u16 =
            status.ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let (mut len, mut close) = (0usize, false);
        loop {
            line.clear();
            r.read_line(&mut line)?;
            let h = line.trim();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(std::io::Error::other)?;
                } else if k.eq_ignore_ascii_case("connection")
                    && v.to_ascii_lowercase().contains("close")
                {
                    close = true;
                }
            }
        }
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)?;
        if close {
            self.stream = None;
        }
        Ok(Reply {
            status,
            body: String::from_utf8(buf).map_err(std::io::Error::other)?,
        })
    }
}

// -- JSON -----------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn parse(text: &str) -> Option<J> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.b.len()).then_some(v)
    }

    pub fn get(&self, key: &str) -> Option<&J> {
        match self {
            J::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a dotted path of object keys.
    pub fn at(&self, path: &str) -> Option<&J> {
        path.split('.').try_fold(self, |v, k| v.get(k))
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            J::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            J::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self) -> Option<&[J]> {
        match self {
            J::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let ok = self.b[self.i..].starts_with(lit.as_bytes());
        if ok {
            self.i += lit.len();
        }
        ok
    }

    fn value(&mut self) -> Option<J> {
        self.ws();
        match *self.b.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut m = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Some(J::Obj(m));
                }
                loop {
                    self.ws();
                    let J::Str(k) = self.string()? else {
                        return None;
                    };
                    self.ws();
                    if !self.eat(":") {
                        return None;
                    }
                    m.push((k, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Some(J::Obj(m));
                    }
                    if !self.eat(",") {
                        return None;
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Some(J::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Some(J::Arr(a));
                    }
                    if !self.eat(",") {
                        return None;
                    }
                }
            }
            b'"' => self.string(),
            b'n' => self.eat("null").then_some(J::Null),
            b't' => self.eat("true").then_some(J::Bool(true)),
            b'f' => self.eat("false").then_some(J::Bool(false)),
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()?
                    .parse()
                    .ok()
                    .map(J::Num)
            }
        }
    }

    fn string(&mut self) -> Option<J> {
        if !self.eat("\"") {
            return None;
        }
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.i < self.b.len() && self.b[self.i] != b'"' && self.b[self.i] != b'\\' {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.b[start..self.i]).ok()?);
            match *self.b.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return Some(J::Str(out));
                }
                _ => {
                    let c = *self.b.get(self.i + 1)?;
                    self.i += 2;
                    out.push(match c {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = std::str::from_utf8(self.b.get(self.i..self.i + 4)?).ok()?;
                            self.i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).ok()?).unwrap_or('\u{fffd}')
                        }
                        other => other as char,
                    });
                }
            }
        }
    }
}

/// The answer rows of a `/query` reply, order-free.
pub fn answer_rows(body: &str) -> Option<crate::oracle::Rows> {
    let v = J::parse(body)?;
    v.get("rows")?
        .arr()?
        .iter()
        .map(|row| {
            row.arr().map(|cells| {
                cells
                    .iter()
                    .map(|c| c.as_str().map(str::to_string))
                    .collect()
            })
        })
        .collect()
}

// -- the server child ------------------------------------------------------

/// A running `triq-cli serve` child.
pub struct ServerProc {
    pub child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `triq-cli serve` over `data_dir` and waits for its
    /// `listening on` line.
    pub fn spawn(
        cli: &Path,
        work: &Path,
        rules: &str,
        data_dir: &Path,
        flags: &[String],
    ) -> Result<ServerProc, String> {
        let graph = work.join("empty.ttl");
        let log_path = work.join("server.log");
        let log = std::fs::File::create(&log_path).map_err(|e| e.to_string())?;
        let rules_path = work.join("rules.dl");
        std::fs::write(&graph, "").map_err(|e| e.to_string())?;
        std::fs::write(&rules_path, rules).map_err(|e| e.to_string())?;
        let mut child = Command::new(cli)
            .arg("serve")
            .arg(&graph)
            .arg(&rules_path)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--chase-threads",
                "1",
                "--data-dir",
            ])
            .arg(data_dir)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                let log = std::fs::read_to_string(&log_path).unwrap_or_default();
                Err(format!(
                    "server did not start (stdout: {line:?}, stderr: {log:?})"
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then wait until the process is gone (see `Drop`).
    pub fn kill(self) {}

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// User plus system CPU time consumed so far, in ms.
    pub fn cpu_ms(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<f64> = rest
            .split_whitespace()
            .filter_map(|x| x.parse().ok())
            .collect();
        let ticks = f.get(11).copied().unwrap_or(0.0) + f.get(12).copied().unwrap_or(0.0);
        ticks * 1000.0 / 100.0
    }
}

impl Drop for ServerProc {
    /// A child is never left running, also when a run ends in an error.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Bytes of all regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

/// Polls `f` until it returns `Some`, for at most `limit`.
pub fn wait_for<T>(limit: Duration, mut f: impl FnMut() -> Option<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        if let Some(v) = f() {
            return Some(v);
        }
        if start.elapsed() > limit {
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}
