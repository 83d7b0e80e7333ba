//! Blocking wire-protocol client.
//!
//! One [`Client`] is one session: `connect` performs the hello
//! handshake and the server binds the connection to a fresh session
//! (own temp views and conf overlay over the shared catalog/cache).

use crate::json::Json;
use crate::wire::{read_frame, write_frame};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// A fetched query result plus its execution counters.
#[derive(Debug, Clone)]
pub struct FetchResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Rows, each value in its wire JSON form.
    pub rows: Vec<Vec<Json>>,
    /// True when admission control queued the query before it started.
    pub queued: bool,
    /// Execution wall time (excludes queueing).
    pub wall_ns: u64,
    /// Spill files the query created / deleted.
    pub spill_files_created: u64,
    pub spill_files_deleted: u64,
    /// Shared-cache evictions the run triggered.
    pub evictions: u64,
}

/// A failed request: either transport trouble or a server-side error
/// message (which, for queries, still carries the counters).
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    /// Server replied `ok:false`; the full reply is kept for counters.
    Server {
        message: String,
        reply: Json,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server { message, .. } => write!(f, "server error: {message}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The raw server reply when this is a server-side error.
    pub fn reply(&self) -> Option<&Json> {
        match self {
            ClientError::Server { reply, .. } => Some(reply),
            ClientError::Io(_) => None,
        }
    }
}

/// One session's connection to the SQL service.
pub struct Client {
    stream: TcpStream,
    session: String,
}

impl Client {
    /// Connect and perform the hello handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            session: String::new(),
        };
        let reply = client.call(Json::obj([("op", Json::Str("hello".into()))]))?;
        client.session = reply
            .get("session")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        Ok(client)
    }

    /// The server-assigned session id.
    pub fn session(&self) -> &str {
        &self.session
    }

    fn call(&mut self, req: Json) -> Result<Json, ClientError> {
        write_frame(&mut self.stream, &req)?;
        let reply = read_frame(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(reply)
        } else {
            let message = reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown server error")
                .to_string();
            Err(ClientError::Server { message, reply })
        }
    }

    /// `SET key=value` in this session only.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ClientError> {
        self.call(Json::obj([
            ("op", Json::Str("set".into())),
            ("key", Json::Str(key.into())),
            ("value", Json::Str(value.into())),
        ]))
        .map(|_| ())
    }

    /// Read one conf key as this session sees it.
    pub fn conf(&mut self, key: &str) -> Result<String, ClientError> {
        let reply = self.call(Json::obj([
            ("op", Json::Str("conf".into())),
            ("key", Json::Str(key.into())),
        ]))?;
        Ok(reply
            .get("value")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string())
    }

    /// Submit a query; returns the query handle for `fetch`/`cancel`.
    pub fn query(&mut self, sql: &str) -> Result<u64, ClientError> {
        self.submit(sql, None)
    }

    /// Submit with an explicit deadline (milliseconds from submission).
    pub fn query_with_timeout(&mut self, sql: &str, timeout_ms: u64) -> Result<u64, ClientError> {
        self.submit(sql, Some(timeout_ms))
    }

    fn submit(&mut self, sql: &str, timeout_ms: Option<u64>) -> Result<u64, ClientError> {
        let mut req = vec![
            ("op", Json::Str("query".into())),
            ("sql", Json::Str(sql.into())),
        ];
        if let Some(t) = timeout_ms {
            req.push(("timeout_ms", Json::Int(t as i64)));
        }
        let reply = self.call(Json::obj(req))?;
        reply
            .get("query")
            .and_then(Json::as_i64)
            .map(|id| id as u64)
            .ok_or_else(|| ClientError::Server {
                message: "query reply missing handle".to_string(),
                reply,
            })
    }

    /// Block until the query finishes and return its result.
    pub fn fetch(&mut self, query: u64) -> Result<FetchResult, ClientError> {
        let reply = self.call(Json::obj([
            ("op", Json::Str("fetch".into())),
            ("query", Json::Int(query as i64)),
        ]))?;
        Ok(decode_fetch(reply))
    }

    /// Submit and fetch in one call.
    pub fn sql(&mut self, text: &str) -> Result<FetchResult, ClientError> {
        let id = self.query(text)?;
        self.fetch(id)
    }

    /// Fire the query's cancel token. Returns whether the handle was
    /// still live.
    pub fn cancel(&mut self, query: u64) -> Result<bool, ClientError> {
        let reply = self.call(Json::obj([
            ("op", Json::Str("cancel".into())),
            ("query", Json::Int(query as i64)),
        ]))?;
        Ok(reply.get("cancelled").and_then(Json::as_bool) == Some(true))
    }

    /// Service-wide counters (admissions, rejections, evictions, …).
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call(Json::obj([("op", Json::Str("stats".into()))]))
    }

    /// Polite shutdown of this session's connection.
    pub fn close(mut self) -> Result<(), ClientError> {
        self.call(Json::obj([("op", Json::Str("close".into()))]))
            .map(|_| ())
    }
}

/// Pull a [`FetchResult`] out of a fetch reply (also used on `ok:false`
/// replies, where only the counters are populated). Takes the reply by
/// value: the rows move out of it rather than being copied.
pub fn decode_fetch(reply: Json) -> FetchResult {
    let mut reply = match reply {
        Json::Obj(fields) => fields,
        _ => Default::default(),
    };
    let mut list = |key: &str| match reply.remove(key) {
        Some(Json::Arr(items)) => items,
        _ => Vec::new(),
    };
    let columns = list("columns");
    let rows = list("rows");
    let int = |k: &str| reply.get(k).and_then(Json::as_i64).unwrap_or(0) as u64;
    FetchResult {
        columns: columns
            .into_iter()
            .filter_map(|v| match v {
                Json::Str(name) => Some(name),
                _ => None,
            })
            .collect(),
        rows: rows
            .into_iter()
            .filter_map(|r| match r {
                Json::Arr(values) => Some(values),
                _ => None,
            })
            .collect(),
        queued: reply.get("queued").and_then(Json::as_bool).unwrap_or(false),
        wall_ns: int("wall_ns"),
        spill_files_created: int("spill_files_created"),
        spill_files_deleted: int("spill_files_deleted"),
        evictions: int("evictions"),
    }
}
