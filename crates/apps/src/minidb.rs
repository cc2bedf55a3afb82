//! `MiniDb`: the MySQL-like database server.
//!
//! Implements a small but real SQL subset — `CREATE TABLE`, `INSERT`,
//! `SELECT` (with `COUNT(*)`, `WHERE`, `ORDER BY`), `UPDATE`, `DELETE`,
//! `OPTIMIZE TABLE`, `LOCK/UNLOCK/FLUSH TABLES` — over tables whose data
//! files live in the virtual filesystem, so the full-disk and
//! max-file-size faults of §5.3 arise from real writes. The five named
//! environment-independent MySQL bugs are realized in their actual code
//! paths (a `COUNT` on an empty table really does take the buggy branch);
//! the two race faults run the use-after-free gadget under the
//! environment's thread interleaving.

use crate::app::{
    share, AppFailure, AppState, Application, Checkpoint, InjectError, Request, Response,
};
use crate::race::{RaceGadget, ARMED_SEED};
use crate::text::{Arg, Text};
use faultstudy_core::taxonomy::AppKind;
use faultstudy_env::dns::Lookup;
use faultstudy_env::fs::FsError;
use faultstudy_env::{Environment, OwnerId};
use faultstudy_micro::{ComponentDesc, CrashOnly, StateKind};
use faultstudy_sim::time::Duration;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Bytes one row occupies in a table's data file.
const ROW_BYTES: u64 = 32;
/// Maximum parenthesis nesting a healthy parser accepts (mysql-ei-18's
/// buggy parser has a fixed 64-frame yacc arena with no check).
const PAREN_DEPTH_LIMIT: u32 = 64;
/// Maximum columns per table (mysql-ei-24's buggy path checks too late).
const COLUMN_LIMIT: usize = 2048;

/// Exact count of `needle` in `hay`, eight bytes per step.
///
/// Per chunk: XOR with the splatted needle turns matches into zero bytes;
/// `(x & 0x7f..) + 0x7f..` sets each byte's high bit iff its low seven
/// bits are non-zero, so `!(y | x) & 0x80..` flags exactly the zero
/// bytes — the carry-free zero-byte mask (no cross-byte borrows, unlike
/// the subtraction variant).
fn count_byte(hay: &[u8], needle: u8) -> usize {
    const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HI: u64 = 0x8080_8080_8080_8080;
    let splat = u64::from(needle).wrapping_mul(0x0101_0101_0101_0101);
    let mut count = 0usize;
    let mut chunks = hay.chunks_exact(8);
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes")) ^ splat;
        let y = (x & LO7).wrapping_add(LO7);
        count += (!(y | x) & HI).count_ones() as usize;
    }
    count + chunks.remainder().iter().filter(|&&b| b == needle).count()
}

/// Counts the comma-separated items of `list` that are non-empty after
/// trimming — `list.split(',').map(str::trim).filter(|c| !c.is_empty())
/// .count()` without walking the segments.
///
/// A segment is provably non-empty when the byte just before its closing
/// delimiter (or the end of the string) is significant — neither
/// whitespace nor a comma. When that holds at every comma of an all-ASCII
/// list the answer is simply `commas + 1`. The proof runs eight bytes per
/// step: per-byte high-bit masks flag commas and ASCII whitespace, and a
/// comma whose predecessor byte (mask shifted up one lane, with a carry
/// across chunks) is a boundary voids it. Any doubt — non-ASCII bytes
/// (multi-byte whitespace), a possibly-empty segment, a non-significant
/// final byte — falls back to the exact segment walk. Large column lists
/// are the hot case and always prove out: `c0, c1, ..., cN` has a digit
/// before every comma.
fn count_list_items(list: &str) -> usize {
    const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HI: u64 = 0x8080_8080_8080_8080;
    const ONES: u64 = 0x0101_0101_0101_0101;
    let slow = || list.split(',').map(str::trim).filter(|c| !c.is_empty()).count();
    let bytes = list.as_bytes();
    match bytes.last() {
        None => return 0,
        // ASCII whitespace per char::is_whitespace: HT LF VT FF CR, space.
        Some(&last) if matches!(last, 0x09..=0x0D | 0x20 | b',') || last >= 0x80 => {
            return slow();
        }
        Some(_) => {}
    }
    // Per-byte equality mask: XOR makes matches zero bytes, and
    // `!(((x & LO7) + LO7) | x) & HI` is the carry-free zero-byte flag.
    let eq = |v: u64, needle: u8| -> u64 {
        let x = v ^ u64::from(needle).wrapping_mul(ONES);
        let y = (x & LO7).wrapping_add(LO7);
        !(y | x) & HI
    };
    // Per-byte `b >= n` mask; sound only for ASCII bytes (no borrow can
    // leave its lane once every high bit is pre-set).
    let ge = |v: u64, n: u8| -> u64 { (v | HI).wrapping_sub(u64::from(n).wrapping_mul(ONES)) & HI };

    let mut commas = 0usize;
    let mut violation = 0u64;
    let mut non_ascii = 0u64;
    // The start of the string acts as a delimiter: a leading comma means
    // an empty first segment.
    let mut carry = 0x80u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let v = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
        non_ascii |= v & HI;
        let comma = eq(v, b',');
        let ws = (ge(v, 0x09) & !ge(v, 0x0E)) | eq(v, 0x20);
        let boundary = comma | ws;
        violation |= comma & ((boundary << 8) | carry);
        carry = boundary >> 56;
        commas += comma.count_ones() as usize;
    }
    if non_ascii != 0 {
        return slow();
    }
    let mut prev_is_boundary = carry != 0;
    for &b in chunks.remainder() {
        if b >= 0x80 {
            return slow();
        }
        if b == b',' {
            if prev_is_boundary {
                return slow();
            }
            commas += 1;
        }
        prev_is_boundary = matches!(b, 0x09..=0x0D | 0x20 | b',');
    }
    if violation != 0 {
        return slow();
    }
    commas + 1
}

/// Maximum parenthesis nesting depth of a statement.
fn exceeds_paren_depth(sql: &str, limit: u32) -> bool {
    // A statement shorter than the limit cannot nest past it — every open
    // paren is a byte — so ordinary statements skip both scans below.
    if sql.len() as u64 <= u64::from(limit) {
        return false;
    }
    // The open-paren count bounds the nesting depth from above and is a
    // constant-stride scan, unlike the sequential depth walk below; long
    // statements with few parens (e.g. mysql-ei-24's 3000-column CREATE)
    // skip the walk entirely.
    let opens = count_byte(sql.as_bytes(), b'(');
    if opens as u64 <= u64::from(limit) {
        return false;
    }
    let mut depth = 0u32;
    for b in sql.bytes() {
        match b {
            b'(' => {
                depth += 1;
                if depth > limit {
                    return true;
                }
            }
            b')' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    false
}

/// One table: named integer columns, rows, and at most one indexed column.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<i64>>,
    /// Index of the indexed column, if any.
    indexed: Option<usize>,
}

impl Table {
    fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// The checkpointable state of the server.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct DbState {
    /// Shared with every checkpoint taken since the last defect was armed.
    enabled_bugs: Arc<BTreeSet<String>>,
    /// Copied by every checkpoint that does not hold them already: the
    /// data a checkpoint exists to keep.
    tables: BTreeMap<String, Table>,
    locked: BTreeSet<String>,
}

/// `snapshot` clones; `restore` and `snapshot_into` copy with `clone_from`,
/// which keeps a defect set that is already shared and leaves equal tables
/// and locks as they are.
impl Clone for DbState {
    fn clone(&self) -> DbState {
        DbState {
            enabled_bugs: Arc::clone(&self.enabled_bugs),
            tables: self.tables.clone(),
            locked: self.locked.clone(),
        }
    }

    fn clone_from(&mut self, source: &DbState) {
        let DbState { enabled_bugs, tables, locked } = source;
        share(&mut self.enabled_bugs, enabled_bugs);
        if self.tables != *tables {
            self.tables.clone_from(tables);
        }
        if self.locked != *locked {
            self.locked.clone_from(locked);
        }
    }
}

/// The MySQL-like database server.
///
/// # Example
///
/// ```
/// use faultstudy_apps::{Application, MiniDb, Request};
/// use faultstudy_env::Environment;
///
/// let mut env = Environment::builder().seed(2).build();
/// let mut db = MiniDb::new(&mut env);
/// db.handle(&Request::new("CREATE TABLE t (k, v)"), &mut env).unwrap();
/// db.handle(&Request::new("INSERT INTO t VALUES (1, 10)"), &mut env).unwrap();
/// let resp = db.handle(&Request::new("SELECT COUNT(*) FROM t"), &mut env).unwrap();
/// assert!(format!("{resp:?}").contains('1'));
/// ```
#[derive(Debug)]
pub struct MiniDb {
    owner: OwnerId,
    state: DbState,
}

impl MiniDb {
    /// Creates the server, registering it as a resource owner in `env`.
    pub fn new(env: &mut Environment) -> MiniDb {
        let owner = env.register_owner();
        MiniDb { owner, state: DbState::default() }
    }

    fn bug(&self, slug: &str) -> bool {
        self.state.enabled_bugs.contains(slug)
    }

    fn ok(&mut self, msg: impl Into<Text>) -> Result<Response, AppFailure> {
        Ok(Response::Ok(msg.into()))
    }

    fn create_table(&mut self, rest: &str, env: &mut Environment) -> Result<Response, AppFailure> {
        // CREATE TABLE <name> (<c1>, <c2>, ...)
        let Some((name, cols)) = rest.split_once('(') else {
            return Ok(Response::Denied("syntax error in CREATE TABLE".into()));
        };
        let name = name.trim();
        let col_list = cols.trim_end_matches(')');
        let column_names = || col_list.split(',').map(str::trim).filter(|c| !c.is_empty());
        // Count before materializing: a 3000-column definition (mysql-ei-24's
        // trigger) is rejected — or crashes the buggy build — without
        // allocating a string per column first.
        let column_count = count_list_items(col_list);
        if name.is_empty() || column_count == 0 {
            return Ok(Response::Denied("empty table name or column list".into()));
        }
        // mysql-ei-24: the buggy build writes the definition array before
        // checking the field count.
        if column_count > COLUMN_LIMIT {
            if self.bug("mysql-ei-24") {
                return Err(AppFailure::Crash(
                    "definition array overrun before the field-count check".into(),
                ));
            }
            return Ok(Response::Denied(
                format!("too many columns: {column_count} > {COLUMN_LIMIT}").into(),
            ));
        }
        let name = name.to_owned();
        let columns: Vec<String> = column_names().map(str::to_owned).collect();
        if self.state.tables.contains_key(&name) {
            return Ok(Response::Denied(format!("table {name} exists").into()));
        }
        if env.fs.write(format!("minidb/{name}.dat"), 0).is_err() {
            return Ok(Response::Denied("cannot create data file".into()));
        }
        self.state
            .tables
            .insert(name.clone(), Table { columns, rows: Vec::new(), indexed: Some(0) });
        self.ok(format!("created {name}"))
    }

    fn insert(&mut self, rest: &str, env: &mut Environment) -> Result<Response, AppFailure> {
        // INSERT INTO <name> VALUES (<v1>, ...)
        let Some((name, values)) = rest.split_once("VALUES") else {
            return Ok(Response::Denied("syntax error in INSERT".into()));
        };
        let name = name.trim().trim_start_matches("INTO").trim().to_owned();
        let Some(table) = self.state.tables.get(&name) else {
            return Ok(Response::Denied(format!("no such table {name}").into()));
        };
        let parsed: Option<Vec<i64>> = values
            .trim()
            .trim_start_matches('(')
            .trim_end_matches(')')
            .split(',')
            .map(|v| v.trim().parse::<i64>().ok())
            .collect();
        let Some(row) = parsed else {
            return Ok(Response::Denied("non-integer value in INSERT".into()));
        };
        if row.len() != table.columns.len() {
            return Ok(Response::Denied("column count mismatch".into()));
        }
        match env.fs.append(format!("minidb/{name}.dat"), ROW_BYTES) {
            Ok(()) => {}
            Err(FsError::FileTooLarge { .. }) if self.bug("mysql-edn-03") => {
                return Err(AppFailure::Crash(
                    "table file exceeded the maximum allowed file size".into(),
                ));
            }
            Err(FsError::NoSpace { .. }) if self.bug("mysql-edn-04") => {
                return Err(AppFailure::ErrorReturn("write failed: file system full".into()));
            }
            Err(e) => return Ok(Response::Denied(format!("insert failed: {e}").into())),
        }
        self.state.tables.get_mut(&name).expect("checked above").rows.push(row);
        self.ok("1 row inserted")
    }

    fn select(&mut self, rest: &str) -> Result<Response, AppFailure> {
        // SELECT <*|COUNT(*)> FROM <name> [WHERE c = v] [ORDER BY c]
        let Some((proj, tail)) = rest.split_once("FROM") else {
            return Ok(Response::Denied("syntax error in SELECT".into()));
        };
        let proj = proj.trim();
        let tail = tail.trim();
        let (name, where_clause, order_clause) = split_select_tail(tail);
        let Some(table) = self.state.tables.get(&name) else {
            return Ok(Response::Denied(format!("no such table {name}").into()));
        };

        let mut rows: Vec<&Vec<i64>> = table.rows.iter().collect();
        if let Some((col, val)) = where_clause {
            let Some(ci) = table.col(&col) else {
                return Ok(Response::Denied(format!("no such column {col}").into()));
            };
            rows.retain(|r| r[ci] == val);
        }

        if proj.eq_ignore_ascii_case("COUNT(*)") {
            if table.rows.is_empty() && self.bug("mysql-ei-03") {
                return Err(AppFailure::Crash(
                    "COUNT on an empty table: missing empty-table check".into(),
                ));
            }
            let n = rows.len();
            return self.ok(format!("{n}"));
        }

        if let Some(order_col) = order_clause {
            if rows.is_empty() && self.bug("mysql-ei-02") {
                return Err(AppFailure::Crash(
                    "ORDER BY over zero records: sort buffer uninitialized".into(),
                ));
            }
            let Some(ci) = table.col(&order_col) else {
                return Ok(Response::Denied(format!("no such column {order_col}").into()));
            };
            rows.sort_by_key(|r| r[ci]);
        }

        let rendered: Vec<String> = rows
            .iter()
            .map(|r| r.iter().map(i64::to_string).collect::<Vec<_>>().join(","))
            .collect();
        self.ok(rendered.join(";"))
    }

    fn update(&mut self, rest: &str) -> Result<Response, AppFailure> {
        // UPDATE <name> SET <col> = <v> [WHERE <col2> = <w>]
        let Some((name, tail)) = rest.split_once("SET") else {
            return Ok(Response::Denied("syntax error in UPDATE".into()));
        };
        let name = name.trim().to_owned();
        let buggy_index_scan = self.bug("mysql-ei-01");
        let Some(table) = self.state.tables.get_mut(&name) else {
            return Ok(Response::Denied(format!("no such table {name}").into()));
        };
        let (set_part, where_part) = match tail.split_once("WHERE") {
            Some((s, w)) => (s.trim(), Some(w.trim())),
            None => (tail.trim(), None),
        };
        let Some((set_col, set_val)) = parse_eq(set_part) else {
            return Ok(Response::Denied("syntax error in SET".into()));
        };
        let Some(sci) = table.col(&set_col) else {
            return Ok(Response::Denied(format!("no such column {set_col}").into()));
        };
        let filter = match where_part {
            Some(w) => match parse_eq(w) {
                Some((c, v)) => match table.col(&c) {
                    Some(ci) => Some((ci, v)),
                    None => return Ok(Response::Denied(format!("no such column {c}").into())),
                },
                None => return Ok(Response::Denied("syntax error in WHERE".into())),
            },
            None => None,
        };

        // The mysql-ei-01 defect: updating an indexed column to a value
        // that will be found later while scanning the index creates
        // duplicate index entries and crashes. The fixed code first scans
        // for all matching rows, then updates.
        let mut updated = 0u32;
        for i in 0..table.rows.len() {
            let matches = filter.is_none_or(|(ci, v)| table.rows[i][ci] == v);
            if !matches {
                continue;
            }
            if buggy_index_scan && table.indexed == Some(sci) {
                let exists_later = table.rows[i + 1..].iter().any(|r| r[sci] == set_val);
                if exists_later {
                    return Err(AppFailure::Crash(
                        "duplicate values created in index during scan".into(),
                    ));
                }
            }
            table.rows[i][sci] = set_val;
            updated += 1;
        }
        self.ok(format!("{updated} rows updated"))
    }

    fn delete(&mut self, rest: &str) -> Result<Response, AppFailure> {
        // DELETE FROM <name> [WHERE c = v]
        let name_and_where = rest.trim().trim_start_matches("FROM").trim();
        let (name, filter) = match name_and_where.split_once("WHERE") {
            Some((n, w)) => (n.trim().to_owned(), Some(w.trim().to_owned())),
            None => (name_and_where.to_owned(), None),
        };
        let Some(table) = self.state.tables.get_mut(&name) else {
            return Ok(Response::Denied(format!("no such table {name}").into()));
        };
        let before = table.rows.len();
        match filter {
            None => table.rows.clear(),
            Some(w) => {
                let Some((c, v)) = parse_eq(&w) else {
                    return Ok(Response::Denied("syntax error in WHERE".into()));
                };
                let Some(ci) = table.col(&c) else {
                    return Ok(Response::Denied(format!("no such column {c}").into()));
                };
                table.rows.retain(|r| r[ci] != v);
            }
        }
        let removed = before - table.rows.len();
        self.ok(format!("{removed} rows deleted"))
    }

    fn connect(&mut self, req: &Request, env: &mut Environment) -> Result<Response, AppFailure> {
        // Each connection consumes a descriptor, then resolves the client.
        let fd = match env.fds.open(self.owner) {
            Ok(fd) => fd,
            Err(_) if self.bug("mysql-edn-01") => {
                return Err(AppFailure::Crash("accept failed: out of file descriptors".into()));
            }
            Err(_) => return Ok(Response::Denied("too many connections".into())),
        };
        let lookup = env.dns.resolve_reverse(&req.client, env.now());
        let _ = env.fds.close(fd);
        match lookup {
            Lookup::NoRecord if self.bug("mysql-edn-02") => Err(AppFailure::Crash(
                "null hostname from unconfigured reverse DNS dereferenced".into(),
            )),
            Lookup::NoRecord | Lookup::ServerError => {
                self.ok(Text::new("connected (unresolved ", &req.client, ")"))
            }
            Lookup::Resolved { .. } => self.ok(Text::new("connected ", &req.client, "")),
        }
    }

    fn race(
        &mut self,
        slug: &str,
        what: &'static str,
        env: &mut Environment,
    ) -> Result<Response, AppFailure> {
        if !self.bug(slug) {
            return self.ok(Text::new(what, " complete", ""));
        }
        match env.race(RaceGadget::default()) {
            Ok(()) => self.ok(Text::new(what, " complete", "")),
            Err(reason) => Err(AppFailure::Crash(Text::new(what, ": ", reason))),
        }
    }
}

/// Splits `"<name> [WHERE c = v] [ORDER BY c]"`.
fn split_select_tail(tail: &str) -> (String, Option<(String, i64)>, Option<String>) {
    let (rest, order) = match tail.split_once("ORDER BY") {
        Some((r, o)) => (r.trim(), Some(o.trim().to_owned())),
        None => (tail, None),
    };
    let (name, where_clause) = match rest.split_once("WHERE") {
        Some((n, w)) => (n.trim().to_owned(), parse_eq(w)),
        None => (rest.trim().to_owned(), None),
    };
    (name, where_clause, order)
}

/// Parses `"<col> = <int>"`.
fn parse_eq(s: &str) -> Option<(String, i64)> {
    let (c, v) = s.split_once('=')?;
    let col = c.trim();
    if col.is_empty() {
        return None;
    }
    Some((col.to_owned(), v.trim().parse().ok()?))
}

impl Application for MiniDb {
    fn kind(&self) -> AppKind {
        AppKind::Mysql
    }

    fn owner(&self) -> OwnerId {
        self.owner
    }

    fn handle(&mut self, req: &Request, env: &mut Environment) -> Result<Response, AppFailure> {
        let body = req.body.trim();
        // mysql-ei-18: the recursive-descent expression parser has a fixed
        // stack; the healthy build bounds the depth first.
        if exceeds_paren_depth(body, PAREN_DEPTH_LIMIT) {
            if self.bug("mysql-ei-18") {
                return Err(AppFailure::Crash(
                    "parser stack overrun on deeply nested parentheses".into(),
                ));
            }
            return Ok(Response::Denied("expression too deeply nested".into()));
        }
        if let Some(slug) = body.strip_prefix("PROBE ") {
            return if self.bug(slug) {
                Err(AppFailure::Crash(Text::new(
                    "deterministic defect ",
                    Arg::part_of(&req.body, slug),
                    " triggered",
                )))
            } else {
                self.ok("probe passed")
            };
        }
        if let Some(rest) = body.strip_prefix("CREATE TABLE ") {
            return self.create_table(rest, env);
        }
        if let Some(rest) = body.strip_prefix("INSERT ") {
            return self.insert(rest, env);
        }
        if let Some(rest) = body.strip_prefix("SELECT ") {
            return self.select(rest);
        }
        if let Some(rest) = body.strip_prefix("UPDATE ") {
            return self.update(rest);
        }
        if let Some(rest) = body.strip_prefix("DELETE ") {
            return self.delete(rest);
        }
        if let Some(rest) = body.strip_prefix("OPTIMIZE TABLE ") {
            let name = rest.trim();
            if !self.state.tables.contains_key(name) {
                return Ok(Response::Denied(format!("no such table {name}").into()));
            }
            if self.bug("mysql-ei-04") {
                return Err(AppFailure::Crash(
                    "OPTIMIZE TABLE: missing initialization in repair path".into(),
                ));
            }
            return self.ok(format!("optimized {name}"));
        }
        if let Some(rest) = body.strip_prefix("LOCK TABLES ") {
            let name = rest.trim().to_owned();
            if !self.state.tables.contains_key(&name) {
                return Ok(Response::Denied(format!("no such table {name}").into()));
            }
            self.state.locked.insert(name);
            return self.ok("locked");
        }
        match body {
            "UNLOCK TABLES" => {
                self.state.locked.clear();
                self.ok("unlocked")
            }
            "FLUSH TABLES" => {
                if !self.state.locked.is_empty() && self.bug("mysql-ei-05") {
                    return Err(AppFailure::Crash(
                        "FLUSH after LOCK frees the held lock list".into(),
                    ));
                }
                self.ok("flushed")
            }
            "CONNECT" => self.connect(req, env),
            "SHUTDOWN" => self.race("mysql-edt-01", "shutdown", env),
            "ADMIN KILL" => self.race("mysql-edt-02", "admin command", env),
            "PING" => self.ok("pong"),
            other => Ok(Response::Denied(Text::new(
                "syntax error near: ",
                Arg::part_of(&req.body, other),
                "",
            ))),
        }
    }

    fn snapshot(&self) -> AppState {
        AppState(Checkpoint::Db(self.state.clone()))
    }

    fn snapshot_into(&self, into: &mut AppState) {
        match &mut into.0 {
            Checkpoint::Db(saved) => saved.clone_from(&self.state),
            other => *other = Checkpoint::Db(self.state.clone()),
        }
    }

    fn restore(&mut self, state: &AppState) {
        let Checkpoint::Db(saved) = &state.0 else {
            panic!("MiniDb restored another application's checkpoint");
        };
        self.state.clone_from(saved);
    }

    fn inject(&mut self, slug: &str, env: &mut Environment) -> Result<(), InjectError> {
        fn table(state: &mut DbState, name: &str, rows: Vec<Vec<i64>>) {
            state.tables.insert(
                name.to_owned(),
                Table { columns: vec!["k".into(), "v".into()], rows, indexed: Some(0) },
            );
        }
        fn fixture(state: &mut DbState, env: &mut Environment, name: &str, rows: Vec<Vec<i64>>) {
            let _ = env.fs.write(format!("minidb/{name}.dat"), ROW_BYTES * rows.len() as u64);
            table(state, name, rows);
        }
        match slug {
            "mysql-ei-01" => fixture(&mut self.state, env, "t", vec![vec![1, 10], vec![2, 20]]),
            "mysql-ei-02" | "mysql-ei-03" => fixture(&mut self.state, env, "empty", Vec::new()),
            "mysql-ei-04" => fixture(&mut self.state, env, "t", vec![vec![1, 10]]),
            "mysql-ei-05" => {
                fixture(&mut self.state, env, "t", vec![vec![1, 10]]);
                // The session had issued LOCK TABLES before the fatal FLUSH.
                self.state.locked.insert("t".to_owned());
            }
            s if s.starts_with("mysql-ei-") => {}
            "mysql-edn-01" => {
                // The co-hosted web server grabs every descriptor.
                let web = env.register_owner();
                env.fds.exhaust_as(web);
            }
            "mysql-edn-02" => {} // the client simply has no PTR record
            "mysql-edn-03" => {
                // The table's data file has grown to the per-file limit.
                let max = env.fs.max_file_size();
                env.fs.write("minidb/t.dat", max).map_err(|_| {
                    InjectError::new(
                        slug,
                        "no room on the disk to grow the data file to the file size limit",
                    )
                })?;
                table(&mut self.state, "t", vec![vec![1, 10]]);
            }
            "mysql-edn-04" => {
                fixture(&mut self.state, env, "t", vec![vec![1, 10]]);
                env.fs.fill_with_ballast();
            }
            "mysql-edt-01" | "mysql-edt-02" => {
                // Arm the race: the reported failure happened under an
                // interleaving inside the window, so the first execution
                // must observe one. Retries see fresh environment timing.
                env.force_interleave_seed(ARMED_SEED);
            }
            _ => return Err(InjectError::unknown(slug)),
        }
        Arc::make_mut(&mut self.state.enabled_bugs).insert(slug.to_owned());
        Ok(())
    }

    fn trigger_request(&self, slug: &str) -> Option<Request> {
        let req = match slug {
            "mysql-ei-01" => Request::new("UPDATE t SET k = 2 WHERE k = 1"),
            "mysql-ei-02" => Request::new("SELECT * FROM empty WHERE k = 7 ORDER BY v"),
            "mysql-ei-03" => Request::new("SELECT COUNT(*) FROM empty"),
            "mysql-ei-04" => Request::new("OPTIMIZE TABLE t"),
            "mysql-ei-05" => Request::new("FLUSH TABLES"),
            "mysql-ei-18" => {
                let depth = (PAREN_DEPTH_LIMIT + 1) as usize;
                Request::new(format!(
                    "SELECT * FROM t WHERE {}k = 1{}",
                    "(".repeat(depth),
                    ")".repeat(depth)
                ))
            }
            "mysql-ei-24" => {
                // 3001 columns make this by far the largest trigger; the
                // text is a pure function of the slug, so build it once.
                use std::sync::OnceLock;
                static WIDE: OnceLock<Request> = OnceLock::new();
                WIDE.get_or_init(|| {
                    use std::fmt::Write;
                    let mut sql = String::with_capacity(8 * (COLUMN_LIMIT + 2));
                    sql.push_str("CREATE TABLE wide (");
                    for i in 0..=COLUMN_LIMIT {
                        if i > 0 {
                            sql.push_str(", ");
                        }
                        let _ = write!(sql, "c{i}");
                    }
                    sql.push(')');
                    Request::new(sql)
                })
                .clone()
            }
            s if s.starts_with("mysql-ei-") => Request::new(format!("PROBE {s}")),
            "mysql-edn-01" => Request::new("CONNECT"),
            "mysql-edn-02" => Request::new("CONNECT").with_client("unregistered.host"),
            "mysql-edn-03" | "mysql-edn-04" => Request::new("INSERT INTO t VALUES (3, 30)"),
            "mysql-edt-01" => Request::new("SHUTDOWN"),
            "mysql-edt-02" => Request::new("ADMIN KILL"),
            _ => return None,
        };
        Some(req)
    }

    fn benign_request(&self) -> Request {
        Request::new("PING")
    }

    fn as_crash_only(&mut self) -> Option<&mut dyn CrashOnly> {
        Some(self)
    }

    fn check_oracle(&self, env: &Environment) -> Vec<String> {
        let mut violations = Vec::new();
        for (name, table) in &self.state.tables {
            // Durable-row invariant: every committed row was appended to the
            // table's data file before it entered memory, so the file must
            // hold at least ROW_BYTES per row. A lower bound, not equality:
            // injections legitimately grow the file (filled disk, size-limit
            // preconditions) without adding rows.
            let need = ROW_BYTES * table.rows.len() as u64;
            match env.fs.stat(&format!("minidb/{name}.dat")) {
                None => violations
                    .push(format!("table {name}: in-memory rows but the data file is gone")),
                Some(meta) if meta.size < need => violations.push(format!(
                    "table {name}: {} rows need {need} durable bytes, file has {}",
                    table.rows.len(),
                    meta.size
                )),
                Some(_) => {}
            }
            if table.rows.iter().any(|r| r.len() != table.columns.len()) {
                violations.push(format!(
                    "table {name}: row width disagrees with its {} columns",
                    table.columns.len()
                ));
            }
            if table.indexed.is_some_and(|ci| ci >= table.columns.len()) {
                violations.push(format!("table {name}: index points past the last column"));
            }
        }
        for name in &self.state.locked {
            if !self.state.tables.contains_key(name) {
                violations.push(format!("lock held on nonexistent table {name}"));
            }
        }
        violations
    }
}

/// Component indices of the database's crash-only partition.
const DB_EXECUTOR: usize = 0;
const DB_PARSER: usize = 1;
const DB_BUFFER_POOL: usize = 2;
const DB_WAL: usize = 3;

/// The database's component tree: the executor owns a connection parser, a
/// buffer pool, and the write-ahead log. Tables (in state and in their
/// `.dat` files) are durable ground truth no component crash may touch;
/// the lock table and open connections are exactly the state a crash
/// discards.
static DB_COMPONENTS: [ComponentDesc; 4] = [
    ComponentDesc {
        name: "db-executor",
        state_kind: StateKind::Volatile,
        boot_cost: Duration::from_millis(35),
        parent: None,
    },
    ComponentDesc {
        name: "db-parser",
        state_kind: StateKind::Volatile,
        boot_cost: Duration::from_millis(10),
        parent: Some(DB_EXECUTOR),
    },
    ComponentDesc {
        name: "db-buffer-pool",
        state_kind: StateKind::DurableSoft,
        boot_cost: Duration::from_millis(25),
        parent: Some(DB_EXECUTOR),
    },
    ComponentDesc {
        name: "db-wal",
        state_kind: StateKind::DurableHard,
        boot_cost: Duration::from_millis(60),
        parent: Some(DB_EXECUTOR),
    },
];

impl CrashOnly for MiniDb {
    fn components(&self) -> &'static [ComponentDesc] {
        &DB_COMPONENTS
    }

    fn route(&self, body: &str) -> usize {
        let body = body.trim();
        if body.starts_with("CONNECT") || body == "PING" {
            return DB_PARSER;
        }
        if body.starts_with("LOCK TABLES ") || body == "UNLOCK TABLES" {
            return DB_BUFFER_POOL;
        }
        if body == "FLUSH TABLES" {
            // Flushing persists table state: write-ahead-log territory.
            return DB_WAL;
        }
        // Statements (SELECT/INSERT/UPDATE/DELETE/CREATE/OPTIMIZE),
        // SHUTDOWN/ADMIN KILL races, PROBE, and anything unknown.
        DB_EXECUTOR
    }

    fn crash_component(&mut self, index: usize, env: &mut Environment) {
        match index {
            DB_EXECUTOR => {
                // In-flight statements die; their session locks die with
                // them. Committed tables are durable and untouched.
                self.state.locked.clear();
                env.procs.kill_all_of(self.owner);
            }
            DB_PARSER => {
                // Client connections (descriptors) die with the parser.
                env.fds.close_all_of(self.owner);
            }
            DB_BUFFER_POOL => {
                // Cached pages and the lock table are discarded; the `.dat`
                // files rebuild the pool on demand.
                self.state.locked.clear();
            }
            // Durable-hard: nothing may be discarded.
            _ => {}
        }
    }

    fn boot_component(&mut self, _index: usize, _env: &mut Environment) {
        // Tables reload lazily from their data files; defects are durable
        // and carry over.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_sim::time::Duration;

    fn reference_count(list: &str) -> usize {
        list.split(',').map(str::trim).filter(|c| !c.is_empty()).count()
    }

    #[test]
    fn list_counting_matches_the_segment_walk() {
        let cases = [
            "",
            "a",
            "a,b",
            "a, b, c",
            ",",
            ",,",
            "a,",
            ",a",
            " , ",
            "a, ,b",
            "a\t,b",
            "a,\u{a0},b",  // non-ASCII whitespace segment trims to empty
            "a,\u{a0}x,b", // non-ASCII whitespace inside a real segment
            "naïve,café",  // non-ASCII non-whitespace
            "a\u{b},b",    // vertical tab: char-whitespace, not u8-ascii-ws
            "x, y\r\n, z ",
            "c0, c1, c2, c3, c4, c5, c6, c7, c8, c9",
        ];
        for case in cases {
            assert_eq!(count_list_items(case), reference_count(case), "{case:?}");
        }
        // The hot shape: thousands of short items, digits before commas.
        let mut wide = String::new();
        for i in 0..=COLUMN_LIMIT {
            use std::fmt::Write as _;
            write!(wide, "c{i}, ").unwrap();
        }
        wide.truncate(wide.len() - 2);
        assert_eq!(count_list_items(&wide), COLUMN_LIMIT + 1);
    }

    #[test]
    fn list_counting_matches_on_randomized_inputs() {
        use faultstudy_sim::rng::{DetRng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from(24);
        let alphabet = [',', ' ', '\t', '\n', '\u{b}', 'a', '7', '\u{a0}', 'é', '('];
        for _ in 0..2000 {
            let len = rng.below(40) as usize;
            let s: String =
                (0..len).map(|_| alphabet[rng.below(alphabet.len() as u64) as usize]).collect();
            assert_eq!(count_list_items(&s), reference_count(&s), "{s:?}");
        }
    }

    #[test]
    fn byte_counting_matches_the_filter_walk() {
        use faultstudy_sim::rng::{DetRng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from(7);
        for _ in 0..500 {
            let len = rng.below(70) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            let needle = rng.below(256) as u8;
            assert_eq!(
                count_byte(&bytes, needle),
                bytes.iter().filter(|&&b| b == needle).count(),
                "{bytes:?} needle {needle}"
            );
        }
    }

    fn setup() -> (Environment, MiniDb) {
        let mut env = Environment::builder()
            .seed(9)
            .fd_limit(8)
            .fs_capacity(64 * 1024)
            .max_file_size(8 * 1024)
            .build();
        let db = MiniDb::new(&mut env);
        (env, db)
    }

    fn run(db: &mut MiniDb, env: &mut Environment, sql: &str) -> Result<Response, AppFailure> {
        db.handle(&Request::new(sql.to_owned()), env)
    }

    #[test]
    fn create_insert_select_round_trip() {
        let (mut env, mut db) = setup();
        run(&mut db, &mut env, "CREATE TABLE t (k, v)").unwrap();
        run(&mut db, &mut env, "INSERT INTO t VALUES (2, 20)").unwrap();
        run(&mut db, &mut env, "INSERT INTO t VALUES (1, 10)").unwrap();
        let resp = run(&mut db, &mut env, "SELECT * FROM t ORDER BY k").unwrap();
        assert_eq!(resp, Response::Ok("1,10;2,20".into()));
        let count = run(&mut db, &mut env, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(count, Response::Ok("2".into()));
    }

    #[test]
    fn where_filter_and_update_and_delete() {
        let (mut env, mut db) = setup();
        run(&mut db, &mut env, "CREATE TABLE t (k, v)").unwrap();
        for (k, v) in [(1, 10), (2, 20), (3, 30)] {
            run(&mut db, &mut env, &format!("INSERT INTO t VALUES ({k}, {v})")).unwrap();
        }
        let resp = run(&mut db, &mut env, "SELECT * FROM t WHERE k = 2").unwrap();
        assert_eq!(resp, Response::Ok("2,20".into()));
        run(&mut db, &mut env, "UPDATE t SET v = 99 WHERE k = 2").unwrap();
        let resp = run(&mut db, &mut env, "SELECT * FROM t WHERE k = 2").unwrap();
        assert_eq!(resp, Response::Ok("2,99".into()));
        run(&mut db, &mut env, "DELETE FROM t WHERE k = 1").unwrap();
        let count = run(&mut db, &mut env, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(count, Response::Ok("2".into()));
    }

    #[test]
    fn syntax_errors_are_graceful() {
        let (mut env, mut db) = setup();
        for sql in [
            "SELECT FROM",
            "CREATE TABLE",
            "INSERT INTO nowhere VALUES (1)",
            "UPDATE t SET",
            "GIBBERISH",
            "SELECT * FROM missing",
        ] {
            let resp = run(&mut db, &mut env, sql).expect("graceful");
            assert!(!resp.is_ok(), "{sql}");
        }
    }

    #[test]
    fn count_on_empty_table_crashes_only_with_bug() {
        let (mut env, mut db) = setup();
        run(&mut db, &mut env, "CREATE TABLE empty (k, v)").unwrap();
        assert!(run(&mut db, &mut env, "SELECT COUNT(*) FROM empty").unwrap().is_ok());
        db.inject("mysql-ei-03", &mut env).unwrap();
        let req = db.trigger_request("mysql-ei-03").unwrap();
        assert!(matches!(db.handle(&req, &mut env), Err(AppFailure::Crash(_))));
    }

    #[test]
    fn order_by_zero_records_crashes_only_with_bug() {
        let (mut env, mut db) = setup();
        db.inject("mysql-ei-02", &mut env).unwrap();
        let req = db.trigger_request("mysql-ei-02").unwrap();
        assert!(db.handle(&req, &mut env).is_err());
        // Non-empty result under the same bug is fine.
        run(&mut db, &mut env, "INSERT INTO empty VALUES (7, 70)").unwrap();
        assert!(run(&mut db, &mut env, "SELECT * FROM empty WHERE k = 7 ORDER BY v")
            .unwrap()
            .is_ok());
    }

    #[test]
    fn index_duplicate_update_crashes_and_fixed_order_is_fine() {
        let (mut env, mut db) = setup();
        db.inject("mysql-ei-01", &mut env).unwrap();
        let req = db.trigger_request("mysql-ei-01").unwrap();
        assert!(db.handle(&req, &mut env).is_err(), "k=1 -> 2 duplicates the later key");
        // Updating to a fresh value takes the same path without the crash.
        assert!(run(&mut db, &mut env, "UPDATE t SET k = 9 WHERE k = 1").unwrap().is_ok());
    }

    #[test]
    fn flush_after_lock_crashes_with_bug() {
        let (mut env, mut db) = setup();
        db.inject("mysql-ei-05", &mut env).unwrap();
        let req = db.trigger_request("mysql-ei-05").unwrap();
        assert!(db.handle(&req, &mut env).is_err());
        // And deterministically again after a state round-trip.
        let snap = db.snapshot();
        db.restore(&snap);
        assert!(db.handle(&req, &mut env).is_err());
    }

    #[test]
    fn optimize_crashes_with_bug_only() {
        let (mut env, mut db) = setup();
        run(&mut db, &mut env, "CREATE TABLE t (k, v)").unwrap();
        assert!(run(&mut db, &mut env, "OPTIMIZE TABLE t").unwrap().is_ok());
        db.inject("mysql-ei-04", &mut env).unwrap();
        let req = db.trigger_request("mysql-ei-04").unwrap();
        assert!(db.handle(&req, &mut env).is_err());
    }

    #[test]
    fn fd_competition_persists_across_generic_recovery() {
        let (mut env, mut db) = setup();
        db.inject("mysql-edn-01", &mut env).unwrap();
        let req = db.trigger_request("mysql-edn-01").unwrap();
        assert!(db.handle(&req, &mut env).is_err());
        env.on_generic_recovery(db.owner());
        assert!(db.handle(&req, &mut env).is_err(), "the web server still holds the descriptors");
    }

    #[test]
    fn reverse_dns_fault_is_per_client() {
        let (mut env, mut db) = setup();
        env.dns.configure_reverse("friendly.host");
        db.inject("mysql-edn-02", &mut env).unwrap();
        let bad = db.trigger_request("mysql-edn-02").unwrap();
        assert!(db.handle(&bad, &mut env).is_err());
        let good = Request::new("CONNECT").with_client("friendly.host");
        assert!(db.handle(&good, &mut env).unwrap().is_ok());
    }

    #[test]
    fn max_file_size_blocks_inserts_permanently() {
        let (mut env, mut db) = setup();
        db.inject("mysql-edn-03", &mut env).unwrap();
        let req = db.trigger_request("mysql-edn-03").unwrap();
        assert!(db.handle(&req, &mut env).is_err());
        env.on_generic_recovery(db.owner());
        env.advance(Duration::from_secs(300));
        assert!(db.handle(&req, &mut env).is_err());
    }

    #[test]
    fn full_filesystem_blocks_inserts() {
        let (mut env, mut db) = setup();
        db.inject("mysql-edn-04", &mut env).unwrap();
        let req = db.trigger_request("mysql-edn-04").unwrap();
        match db.handle(&req, &mut env) {
            Err(AppFailure::ErrorReturn(msg)) => assert!(msg.to_string().contains("full")),
            other => panic!("expected hard error, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_race_depends_on_interleaving_and_time_heals_it() {
        let (mut env, mut db) = setup();
        db.inject("mysql-edt-01", &mut env).unwrap();
        let req = db.trigger_request("mysql-edt-01").unwrap();
        // Deterministic for a fixed environment.
        let first = db.handle(&req, &mut env).is_err();
        let again = db.handle(&req, &mut env).is_err();
        assert_eq!(first, again, "same environment, same interleaving, same outcome");
        // Across environment changes some attempt eventually succeeds.
        let mut survived = false;
        for _ in 0..20 {
            env.advance(Duration::from_millis(100));
            if db.handle(&req, &mut env).is_ok() {
                survived = true;
                break;
            }
        }
        assert!(survived, "the race window is not total");
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let (mut env, mut db) = setup();
        run(&mut db, &mut env, "CREATE TABLE t (k, v)").unwrap();
        run(&mut db, &mut env, "INSERT INTO t VALUES (1, 10)").unwrap();
        let snap = db.snapshot();
        run(&mut db, &mut env, "INSERT INTO t VALUES (2, 20)").unwrap();
        db.restore(&snap);
        let count = run(&mut db, &mut env, "SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(count, Response::Ok("1".into()));
    }

    #[test]
    fn deep_parentheses_denied_when_healthy_crash_with_bug() {
        let (mut env, mut db) = setup();
        db.inject("mysql-ei-18", &mut env).unwrap();
        let deep = db.trigger_request("mysql-ei-18").unwrap();
        assert!(db.handle(&deep, &mut env).is_err());
        // Shallow nesting parses normally even with the bug present.
        run(&mut db, &mut env, "CREATE TABLE t2 (k, v)").unwrap();
        assert!(run(&mut db, &mut env, "SELECT * FROM t2 WHERE k = 1").unwrap().is_ok());
        // Healthy build: deep nesting is a graceful error.
        let mut env2 = Environment::builder().seed(1).build();
        let mut healthy = MiniDb::new(&mut env2);
        let resp = healthy.handle(&deep, &mut env2).unwrap();
        assert!(!resp.is_ok());
    }

    #[test]
    fn wide_create_table_denied_when_healthy_crash_with_bug() {
        let (mut env, mut db) = setup();
        let wide = MiniDb::new(&mut Environment::builder().seed(2).build())
            .trigger_request("mysql-ei-24")
            .unwrap();
        let resp = db.handle(&wide, &mut env).unwrap();
        assert!(!resp.is_ok(), "healthy: too many columns denied");
        db.inject("mysql-ei-24", &mut env).unwrap();
        assert!(db.handle(&wide, &mut env).is_err());
    }

    #[test]
    fn every_corpus_mysql_slug_has_a_trigger() {
        let (_, db) = setup();
        for f in faultstudy_corpus::corpus_for(faultstudy_core::taxonomy::AppKind::Mysql) {
            assert!(db.trigger_request(f.slug()).is_some(), "{}", f.slug());
        }
        assert!(db.trigger_request("apache-ei-01").is_none());
    }

    #[test]
    fn oracle_is_silent_on_consistent_state() {
        let (mut env, mut db) = setup();
        run(&mut db, &mut env, "CREATE TABLE t (k, v)").unwrap();
        run(&mut db, &mut env, "INSERT INTO t VALUES (1, 10)").unwrap();
        run(&mut db, &mut env, "LOCK TABLES t").unwrap();
        assert!(db.check_oracle(&env).is_empty());
    }

    #[test]
    fn oracle_catches_rows_without_durable_backing() {
        let (mut env, mut db) = setup();
        run(&mut db, &mut env, "CREATE TABLE t (k, v)").unwrap();
        run(&mut db, &mut env, "INSERT INTO t VALUES (1, 10)").unwrap();
        env.fs.remove("minidb/t.dat").unwrap();
        let violations = db.check_oracle(&env);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("data file is gone"), "{violations:?}");
    }

    #[test]
    fn oracle_catches_locks_on_dropped_tables() {
        let (mut env, mut db) = setup();
        run(&mut db, &mut env, "CREATE TABLE t (k, v)").unwrap();
        run(&mut db, &mut env, "LOCK TABLES t").unwrap();
        db.state.tables.remove("t");
        let violations = db.check_oracle(&env);
        assert!(violations.iter().any(|v| v.contains("nonexistent table")), "{violations:?}");
    }

    #[test]
    fn oracle_tolerates_injection_grown_files() {
        // mysql-edn-03 grows the data file to the per-file limit; a durable
        // surplus is not corruption, only a deficit is.
        let (mut env, mut db) = setup();
        db.inject("mysql-edn-03", &mut env).unwrap();
        assert!(db.check_oracle(&env).is_empty());
    }

    #[test]
    fn lock_unlock_flush_are_benign_without_bug() {
        let (mut env, mut db) = setup();
        run(&mut db, &mut env, "CREATE TABLE t (k, v)").unwrap();
        assert!(run(&mut db, &mut env, "LOCK TABLES t").unwrap().is_ok());
        assert!(run(&mut db, &mut env, "FLUSH TABLES").unwrap().is_ok());
        assert!(run(&mut db, &mut env, "UNLOCK TABLES").unwrap().is_ok());
    }
}
