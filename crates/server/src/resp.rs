//! RESP2 wire protocol: incremental frame parsing and reply encoding.
//!
//! The front-end speaks the Redis serialization protocol's client subset:
//! commands arrive either as arrays of bulk strings (`*2\r\n$3\r\nGET\r\n...`,
//! what every client library sends) or as space-separated inline commands
//! (`GET 42\r\n`, what a human in `nc` types). Parsing is incremental — a
//! frame split across TCP segments parses once the rest arrives — and
//! pipelining falls out naturally: every complete frame sitting in the
//! buffer is consumed in one pass, which is what the connection layer turns
//! into one `execute_batch` call.
//!
//! Errors are split by blast radius: [`ParseError::Protocol`] means the
//! stream itself is unframeable (desynchronized lengths, oversized frames)
//! and the connection must close after an `-ERR` reply; a bad argument
//! inside a well-formed frame is a per-command error and the stream keeps
//! going.

/// One decoded client command. Keys and values are decimal `u64`s — the
/// store under this front-end is the fixed-width `FasterKv<u64, u64, _>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Get(u64),
    Set(u64, u64),
    Del(u64),
    /// `INCR key` / `INCRBY key n`: RMW-add through the store's CRDT path.
    Incr(u64, u64),
    Ping,
    Quit,
    /// Well-formed frame, unusable content: reply `-ERR ...`, keep the
    /// connection.
    Bad(String),
}

/// Stream-level failure: the connection cannot be resynchronized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

/// A frame no client legitimately sends: longer and the stream is treated
/// as garbage rather than buffered without bound.
const MAX_BULK: usize = 64 * 1024;
const MAX_ARGS: usize = 1024;
const MAX_INLINE: usize = 16 * 1024;

/// A frame's tokens, borrowed from the input buffer. Every served command
/// takes at most three arguments after its name, so only the first four
/// tokens are kept; `len` is the true count, for the arity check.
struct Args<'a> {
    toks: [&'a [u8]; 4],
    len: usize,
}

impl<'a> Args<'a> {
    fn new() -> Self {
        Args { toks: [&[]; 4], len: 0 }
    }

    fn push(&mut self, tok: &'a [u8]) {
        if let Some(slot) = self.toks.get_mut(self.len) {
            *slot = tok;
        }
        self.len += 1;
    }
}

/// Outcome of one parse attempt against the front of the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A frame decoded to a command; drop `usize` bytes and call again.
    Frame(Command, usize),
    /// A complete but command-less frame — a bare newline or a legal
    /// `*0\r\n` empty array. Redis ignores both silently: drop the bytes,
    /// produce no reply.
    Empty(usize),
    /// The buffer holds only a frame prefix; read more.
    Partial,
}

/// Tries to decode one complete command from the front of `buf`.
/// `Err(_)` means the stream is desynchronized; close after erroring.
pub fn parse(buf: &[u8]) -> Result<Parsed, ParseError> {
    let Some(&first) = buf.first() else { return Ok(Parsed::Partial) };
    if first == b'*' {
        parse_array(buf)
    } else {
        parse_inline(buf)
    }
}

/// Array-of-bulk-strings form: `*<n>\r\n` then `n` times `$<len>\r\n<len
/// bytes>\r\n`.
fn parse_array(buf: &[u8]) -> Result<Parsed, ParseError> {
    let Some((count, mut at)) = parse_int_line(buf, 1)? else { return Ok(Parsed::Partial) };
    if count < 0 || count as usize > MAX_ARGS {
        return Err(ParseError(format!("invalid multibulk length {count}")));
    }
    if count == 0 {
        return Ok(Parsed::Empty(at));
    }
    let mut args = Args::new();
    for _ in 0..count {
        if at >= buf.len() {
            return Ok(Parsed::Partial);
        }
        if buf[at] != b'$' {
            return Err(ParseError("expected bulk string ($)".into()));
        }
        let Some((len, data_at)) = parse_int_line(buf, at + 1)? else {
            return Ok(Parsed::Partial);
        };
        if len < 0 || len as usize > MAX_BULK {
            return Err(ParseError(format!("invalid bulk length {len}")));
        }
        let end = data_at + len as usize;
        if buf.len() < end + 2 {
            return Ok(Parsed::Partial);
        }
        if &buf[end..end + 2] != b"\r\n" {
            return Err(ParseError("bulk string missing terminator".into()));
        }
        args.push(&buf[data_at..end]);
        at = end + 2;
    }
    Ok(Parsed::Frame(decode(&args), at))
}

/// Inline form: one CRLF-terminated line of space-separated tokens.
fn parse_inline(buf: &[u8]) -> Result<Parsed, ParseError> {
    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
        if buf.len() > MAX_INLINE {
            return Err(ParseError("inline command too long".into()));
        }
        return Ok(Parsed::Partial);
    };
    let line = &buf[..nl];
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let mut args = Args::new();
    for tok in line.split(|&b| b == b' ').filter(|t| !t.is_empty()) {
        args.push(tok);
    }
    if args.len == 0 {
        return Ok(Parsed::Empty(nl + 1));
    }
    Ok(Parsed::Frame(decode(&args), nl + 1))
}

/// `<digits>\r\n` starting at `from`; returns the value and the offset just
/// past the CRLF.
fn parse_int_line(buf: &[u8], from: usize) -> Result<Option<(i64, usize)>, ParseError> {
    let Some(rel) = buf[from.min(buf.len())..].iter().position(|&b| b == b'\n') else {
        if buf.len() - from.min(buf.len()) > 32 {
            return Err(ParseError("length line too long".into()));
        }
        return Ok(None);
    };
    let nl = from + rel;
    if nl == from || buf[nl - 1] != b'\r' {
        return Err(ParseError("length line missing CR".into()));
    }
    let digits = &buf[from..nl - 1];
    let s = std::str::from_utf8(digits).map_err(|_| ParseError("non-ASCII length".into()))?;
    let v: i64 = s.parse().map_err(|_| ParseError(format!("invalid length {s:?}")))?;
    Ok(Some((v, nl + 1)))
}

/// Maps a tokenized frame to a [`Command`]. Content errors (wrong arity,
/// non-numeric key) stay inside the frame: the stream is still synchronized.
/// The name is matched in place, ignoring ASCII case; only the error paths
/// allocate.
fn decode(args: &Args<'_>) -> Command {
    let name = args.toks[0];
    let is = |verb: &str| name.eq_ignore_ascii_case(verb.as_bytes());
    let int = |i: usize| -> Result<u64, Command> {
        std::str::from_utf8(args.toks[i])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| Command::Bad("value is not an integer or out of range".into()))
    };
    // `verb` is the lowercase name the error text quotes.
    let arity = |verb: &str, want: usize| -> Option<Command> {
        (args.len != want + 1)
            .then(|| Command::Bad(format!("wrong number of arguments for '{verb}' command")))
    };
    macro_rules! get {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(bad) => return bad,
            }
        };
    }
    if is("ping") {
        Command::Ping
    } else if is("quit") {
        Command::Quit
    } else if is("get") {
        arity("get", 1).unwrap_or_else(|| Command::Get(get!(int(1))))
    } else if is("set") {
        arity("set", 2).unwrap_or_else(|| Command::Set(get!(int(1)), get!(int(2))))
    } else if is("del") {
        arity("del", 1).unwrap_or_else(|| Command::Del(get!(int(1))))
    } else if is("incr") {
        arity("incr", 1).unwrap_or_else(|| Command::Incr(get!(int(1)), 1))
    } else if is("incrby") {
        arity("incrby", 2).unwrap_or_else(|| Command::Incr(get!(int(1)), get!(int(2))))
    } else {
        Command::Bad(format!("unknown command '{}'", String::from_utf8_lossy(name).to_lowercase()))
    }
}

// ------------------------------------------------------------- reply encode

/// `+<msg>\r\n`
pub fn simple(out: &mut Vec<u8>, msg: &str) {
    out.push(b'+');
    out.extend_from_slice(msg.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// `-<msg>\r\n`
pub fn error(out: &mut Vec<u8>, msg: &str) {
    out.push(b'-');
    // CR/LF inside an error message would desynchronize the stream.
    out.extend(msg.bytes().map(|b| if b == b'\r' || b == b'\n' { b' ' } else { b }));
    out.extend_from_slice(b"\r\n");
}

/// The decimal digits of a `u64`, formatted on the stack (at most 20).
struct Digits {
    buf: [u8; 20],
    start: usize,
}

impl Digits {
    fn new(mut n: u64) -> Self {
        let mut d = Digits { buf: [0; 20], start: 20 };
        loop {
            d.start -= 1;
            d.buf[d.start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return d;
            }
        }
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

/// `:<n>\r\n`
pub fn integer(out: &mut Vec<u8>, n: u64) {
    out.push(b':');
    out.extend_from_slice(Digits::new(n).as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// `$<len>\r\n<decimal n>\r\n` — values are served as bulk strings, the way
/// Redis serves integer-looking values.
pub fn bulk_u64(out: &mut Vec<u8>, n: u64) {
    let digits = Digits::new(n);
    let s = digits.as_bytes();
    out.push(b'$');
    out.extend_from_slice(Digits::new(s.len() as u64).as_bytes());
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(s);
    out.extend_from_slice(b"\r\n");
}

/// `$-1\r\n` — the RESP2 nil bulk (key absent).
pub fn nil(out: &mut Vec<u8>) {
    out.extend_from_slice(b"$-1\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use faster_util::XorShift64;

    fn one(buf: &[u8]) -> (Command, usize) {
        match parse(buf).expect("parse ok") {
            Parsed::Frame(cmd, n) => (cmd, n),
            other => panic!("expected a command frame, got {other:?}"),
        }
    }

    #[test]
    fn inline_commands_parse() {
        assert_eq!(one(b"GET 42\r\n"), (Command::Get(42), 8));
        assert_eq!(one(b"set 1 2\r\n").0, Command::Set(1, 2));
        assert_eq!(one(b"DEL 7\n").0, Command::Del(7));
        assert_eq!(one(b"INCR 3\r\n").0, Command::Incr(3, 1));
        assert_eq!(one(b"INCRBY 3 9\r\n").0, Command::Incr(3, 9));
        assert_eq!(one(b"PING\r\n").0, Command::Ping);
    }

    #[test]
    fn array_commands_parse() {
        let frame = b"*3\r\n$3\r\nSET\r\n$2\r\n10\r\n$2\r\n20\r\n";
        assert_eq!(one(frame), (Command::Set(10, 20), frame.len()));
        let frame = b"*2\r\n$3\r\nGET\r\n$1\r\n5\r\n";
        assert_eq!(one(frame), (Command::Get(5), frame.len()));
    }

    #[test]
    fn partial_frames_wait_for_more() {
        let frame = b"*3\r\n$3\r\nSET\r\n$2\r\n10\r\n$2\r\n20\r\n";
        for cut in 0..frame.len() {
            assert_eq!(parse(&frame[..cut]).unwrap(), Parsed::Partial, "cut={cut}");
        }
    }

    #[test]
    fn empty_frames_are_consumed_silently() {
        // A legal empty array must not reach decode() (it used to panic
        // at args[0] and kill the worker) and must produce no reply.
        assert_eq!(parse(b"*0\r\n").unwrap(), Parsed::Empty(4));
        assert_eq!(parse(b"*0\r\nGET 1\r\n").unwrap(), Parsed::Empty(4));
        // Bare newlines likewise: Redis ignores empty inline commands, so
        // no synthesized PING/PONG that would shift reply pairing.
        assert_eq!(parse(b"\r\n").unwrap(), Parsed::Empty(2));
        assert_eq!(parse(b"\n").unwrap(), Parsed::Empty(1));
        assert_eq!(parse(b"   \r\n").unwrap(), Parsed::Empty(5));
        // The command behind a skipped frame still parses.
        let buf = b"*0\r\nGET 4\r\n";
        let Parsed::Empty(n) = parse(buf).unwrap() else { panic!("expected empty") };
        assert_eq!(one(&buf[n..]).0, Command::Get(4));
    }

    #[test]
    fn pipelined_frames_consume_one_at_a_time() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"*3\r\n$3\r\nSET\r\n$1\r\n1\r\n$1\r\n9\r\n");
        buf.extend_from_slice(b"GET 1\r\n");
        let (c1, n1) = one(&buf);
        assert_eq!(c1, Command::Set(1, 9));
        let (c2, n2) = one(&buf[n1..]);
        assert_eq!(c2, Command::Get(1));
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn content_errors_keep_the_stream() {
        assert!(matches!(one(b"GET abc\r\n").0, Command::Bad(_)));
        assert!(matches!(one(b"NOPE 1\r\n").0, Command::Bad(_)));
        assert!(matches!(one(b"GET 1 2\r\n").0, Command::Bad(_)));
        // The next frame after a Bad still parses.
        let buf = b"GET abc\r\nGET 4\r\n";
        let (_, n) = one(buf);
        assert_eq!(one(&buf[n..]).0, Command::Get(4));
    }

    #[test]
    fn protocol_errors_poison_the_stream() {
        assert!(parse(b"*x\r\n").is_err());
        assert!(parse(b"*2\r\nX3\r\nGET\r\n").is_err());
        assert!(parse(b"*1\r\n$99999999\r\n").is_err());
        assert!(parse(b"*-5\r\n").is_err());
    }

    #[test]
    fn encoders_round_trip_shapes() {
        let mut out = Vec::new();
        simple(&mut out, "OK");
        integer(&mut out, 7);
        bulk_u64(&mut out, 123);
        nil(&mut out);
        error(&mut out, "ERR bad\r\nthing");
        assert_eq!(
            out,
            b"+OK\r\n:7\r\n$3\r\n123\r\n$-1\r\n-ERR bad  thing\r\n".to_vec()
        );
    }

    /// The stack digit helper against the `to_string` encoding: values of
    /// 1, 2, 3, 10 and 20 digits, so bulk length prefixes of one and two.
    #[test]
    fn integer_encoders_match_to_string() {
        for n in [0, 9, 10, 99, 100, 1_000_000_000, u64::MAX] {
            let mut out = Vec::new();
            integer(&mut out, n);
            assert_eq!(out, format!(":{n}\r\n").into_bytes(), "integer {n}");
            out.clear();
            bulk_u64(&mut out, n);
            let s = n.to_string();
            assert_eq!(out, format!("${}\r\n{s}\r\n", s.len()).into_bytes(), "bulk {n}");
        }
    }

    #[test]
    fn command_names_ignore_ascii_case() {
        assert_eq!(one(b"gEt 5\r\n").0, Command::Get(5));
        assert_eq!(one(b"InCrBy 3 4\r\n").0, Command::Incr(3, 4));
        assert_eq!(one(b"*2\r\n$3\r\ngEt\r\n$1\r\n5\r\n").0, Command::Get(5));
        assert_eq!(one(b"*3\r\n$6\r\nInCrBy\r\n$1\r\n3\r\n$1\r\n4\r\n").0, Command::Incr(3, 4));
    }

    /// Array and inline encodings of one frame of `toks`.
    fn both_forms(toks: &[String]) -> [Vec<u8>; 2] {
        let mut array = format!("*{}\r\n", toks.len()).into_bytes();
        for t in toks {
            array.extend_from_slice(format!("${}\r\n{t}\r\n", t.len()).as_bytes());
        }
        [array, format!("{}\r\n", toks.join(" ")).into_bytes()]
    }

    /// Only four tokens are kept, but the count is exact: a longer frame is
    /// framed in full and decodes to the arity error it always did.
    #[test]
    fn long_frames_keep_the_arity_error() {
        let verbs = [("GET", "get"), ("set", "set"), ("Del", "del"), ("INCRBY", "incrby")];
        for len in [4, 5, 1_000] {
            for (verb, shown) in verbs {
                let mut toks = vec![verb.to_string()];
                toks.extend((1..len).map(|i| i.to_string()));
                let want = Command::Bad(format!("wrong number of arguments for '{shown}' command"));
                for frame in both_forms(&toks) {
                    assert_eq!(one(&frame), (want.clone(), frame.len()), "{len} tokens");
                }
            }
        }
    }

    /// One random well-framed command in a random form: its bytes and the
    /// command it must decode to.
    fn random_frame(rng: &mut XorShift64) -> (Vec<u8>, Option<Command>) {
        let (k, v) = (rng.next_below(1 << 20), rng.next_u64());
        let (mut toks, cmd) = match rng.next_below(10) {
            0 => (vec!["get".to_string(), k.to_string()], Command::Get(k)),
            1 => (vec!["set".into(), k.to_string(), v.to_string()], Command::Set(k, v)),
            2 => (vec!["del".into(), k.to_string()], Command::Del(k)),
            3 => (vec!["incr".into(), k.to_string()], Command::Incr(k, 1)),
            4 => (vec!["incrby".into(), k.to_string(), v.to_string()], Command::Incr(k, v)),
            5 => (vec!["ping".into()], Command::Ping),
            6 => (
                vec!["get".into(), k.to_string(), v.to_string()],
                Command::Bad("wrong number of arguments for 'get' command".into()),
            ),
            7 => (
                vec!["set".into(), "x".into(), v.to_string()],
                Command::Bad("value is not an integer or out of range".into()),
            ),
            8 => (vec!["nope".into()], Command::Bad("unknown command 'nope'".into())),
            _ => {
                let empty: &[u8] = if rng.next_below(2) == 0 { b"*0\r\n" } else { b"\r\n" };
                return (empty.to_vec(), None);
            }
        };
        toks[0] = toks[0]
            .chars()
            .map(|ch| if rng.next_below(2) == 0 { ch.to_ascii_uppercase() } else { ch })
            .collect();
        let [array, inline] = both_forms(&toks);
        (if rng.next_below(2) == 0 { array } else { inline }, Some(cmd))
    }

    /// Feeds `chunks` in turn into one buffer, consuming every complete
    /// frame after each, the way a connection parses what each read adds.
    fn parse_fed(chunks: &[&[u8]]) -> Vec<Command> {
        let (mut buf, mut cmds) = (Vec::new(), Vec::new());
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            let mut at = 0;
            loop {
                match parse(&buf[at..]).expect("well-framed pipeline") {
                    Parsed::Frame(cmd, n) => {
                        cmds.push(cmd);
                        at += n;
                    }
                    Parsed::Empty(n) => at += n,
                    Parsed::Partial => break,
                }
            }
            buf.drain(..at);
        }
        assert!(buf.is_empty(), "{} bytes left unparsed", buf.len());
        cmds
    }

    #[test]
    fn pipelines_parse_the_same_cut_at_every_offset() {
        let mut rng = XorShift64::new(0x9A95E);
        for _ in 0..150 {
            let (mut wire, mut want) = (Vec::new(), Vec::new());
            for _ in 0..1 + rng.next_below(12) {
                let (bytes, cmd) = random_frame(&mut rng);
                wire.extend_from_slice(&bytes);
                want.extend(cmd);
            }
            assert_eq!(parse_fed(&[&wire]), want);
            for cut in 0..=wire.len() {
                assert_eq!(parse_fed(&[&wire[..cut], &wire[cut..]]), want, "cut at {cut}");
            }
        }
    }

    /// Hostile input: random bytes, biased towards RESP's own punctuation,
    /// and valid pipelines with one byte corrupted. Every parse returns, and
    /// every frame it reports lies inside the buffer.
    #[test]
    fn random_bytes_never_panic() {
        const ALPHABET: &[u8] = b"*$-+:0123456789\r\n GETSETDELINCRBYPINGgetx\x00\xff";
        let mut rng = XorShift64::new(0xBAD_B17E5);
        for round in 0..20_000 {
            let mut buf: Vec<u8> = if round % 2 == 0 {
                (0..rng.next_below(80))
                    .map(|_| match rng.next_below(4) {
                        0 => rng.next_u64() as u8,
                        _ => ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize],
                    })
                    .collect()
            } else {
                (0..1 + rng.next_below(4)).flat_map(|_| random_frame(&mut rng).0).collect()
            };
            if round % 2 == 1 {
                let at = rng.next_below(buf.len() as u64) as usize;
                buf[at] = ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize];
            }
            let mut at = 0;
            while let Ok(Parsed::Frame(_, n) | Parsed::Empty(n)) = parse(&buf[at..]) {
                assert!(n > 0 && at + n <= buf.len(), "frame of {n} bytes at {at} in {buf:?}");
                at += n;
            }
        }
    }
}
