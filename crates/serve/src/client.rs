//! Client-side transport for the wire protocol: one connection to a
//! Unix-socket server (`cla-tool serve`) or a TCP hub (`cla-tool hub`),
//! speaking newline-delimited JSON.
//!
//! `cla-tool query`, the stress harnesses, and the hub benchmark all go
//! through [`Client`], so every consumer gets the same typed errors — in
//! particular a connection refusal is [`ClientError::Refused`], not a
//! panic — and the same pipelining primitives ([`Client::send`] many
//! requests, then [`Client::recv`] the replies in order).

use crate::json::{parse, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

/// Where a server lives: a Unix socket path, or a TCP `host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-socket server (`cla-tool serve`).
    Unix(PathBuf),
    /// A TCP hub (`cla-tool hub`), addressed as `host:port`.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// A typed client-side failure. `Refused` is its own variant because it is
/// the error every operator hits first (server not started, wrong port)
/// and callers want to print a hint, not a backtrace.
#[derive(Debug)]
pub enum ClientError {
    /// Nothing is listening at the endpoint (connection refused, or the
    /// socket path does not exist).
    Refused { endpoint: String },
    /// Any other transport failure.
    Io {
        endpoint: String,
        source: std::io::Error,
    },
    /// The server closed the connection before sending a reply.
    Closed { endpoint: String },
    /// The server sent bytes that do not parse as a JSON reply.
    Protocol { endpoint: String, detail: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Refused { endpoint } => {
                write!(
                    f,
                    "connection refused at {endpoint} (is the server running?)"
                )
            }
            ClientError::Io { endpoint, source } => write!(f, "i/o error at {endpoint}: {source}"),
            ClientError::Closed { endpoint } => {
                write!(f, "server at {endpoint} closed the connection")
            }
            ClientError::Protocol { endpoint, detail } => {
                write!(f, "bad reply from {endpoint}: {detail}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The two stream types behind one `Read`/`Write` face (shared with the
/// server's accept loop).
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    pub(crate) fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
        }
    }

    pub(crate) fn set_read_timeout(&self, t: Option<std::time::Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// One connection to a server, with a buffered read half.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
    endpoint: String,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("endpoint", &self.endpoint)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to `endpoint`. A refusal (nothing listening, missing
    /// socket file) becomes [`ClientError::Refused`].
    pub fn connect(endpoint: &Endpoint) -> Result<Client, ClientError> {
        let name = endpoint.to_string();
        let classify = |e: std::io::Error| {
            if matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::NotFound
                    | std::io::ErrorKind::AddrNotAvailable
            ) {
                ClientError::Refused {
                    endpoint: name.clone(),
                }
            } else {
                ClientError::Io {
                    endpoint: name.clone(),
                    source: e,
                }
            }
        };
        let writer = match endpoint {
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path).map_err(classify)?),
            Endpoint::Tcp(addr) => {
                Stream::Tcp(TcpStream::connect(addr.as_str()).map_err(classify)?)
            }
        };
        let reader = writer.try_clone().map_err(classify)?;
        Ok(Client {
            reader: BufReader::new(reader),
            writer,
            endpoint: name,
        })
    }

    /// The endpoint this client is connected to, for error messages.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Writes one request without waiting for the reply. Pair with
    /// [`Client::recv`]; the server answers pipelined requests in order.
    pub fn send(&mut self, req: &Value) -> Result<(), ClientError> {
        let mut text = req.encode();
        text.push('\n');
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| ClientError::Io {
                endpoint: self.endpoint.clone(),
                source: e,
            })
    }

    /// Reads one reply line and parses it.
    pub fn recv(&mut self) -> Result<Value, ClientError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| ClientError::Io {
                endpoint: self.endpoint.clone(),
                source: e,
            })?;
        if n == 0 {
            return Err(ClientError::Closed {
                endpoint: self.endpoint.clone(),
            });
        }
        parse(line.trim()).map_err(|e| ClientError::Protocol {
            endpoint: self.endpoint.clone(),
            detail: format!("{e} in {line:?}"),
        })
    }

    /// One request/reply round trip.
    pub fn request(&mut self, req: &Value) -> Result<Value, ClientError> {
        self.send(req)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_is_typed_not_a_panic() {
        let missing = Endpoint::Unix(std::env::temp_dir().join("cla-client-no-such.sock"));
        match Client::connect(&missing) {
            Err(ClientError::Refused { endpoint }) => assert!(endpoint.contains("unix:")),
            other => panic!("expected Refused, got {other:?}"),
        }
        // A TCP port with nothing listening. Port 1 is privileged and
        // closed in any test environment.
        match Client::connect(&Endpoint::Tcp("127.0.0.1:1".into())) {
            Err(ClientError::Refused { .. }) | Err(ClientError::Io { .. }) => {}
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
}
