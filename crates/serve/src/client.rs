//! A small blocking client for the network front-end.
//!
//! [`NetClient`] speaks the framed [`proto`](crate::proto) protocol over
//! one TCP connection: `send` frames a [`Request`] and returns its
//! correlation id, `recv` blocks for a specific response (stashing any
//! others that arrive first, so requests can be pipelined), and `try_recv`
//! drains whatever has already arrived without blocking — the shape an
//! open-loop load generator needs.  Convenience wrappers (`query`, `solve`,
//! `stats`, ...) mirror [`ServeHandle`](crate::ServeHandle) one-for-one,
//! which is the point of the shared protocol: the same [`Request`] type
//! crosses the wire that an in-process caller submits directly.
//!
//! The client is single-threaded by design (no locks, no reader thread);
//! clone nothing, open one client per connection.

use crate::proto::{encode_frame, take_frame, Request, Response};
use crate::server::QueryReply;
use crate::stats::ServerStats;
use matrox_core::MatroxError;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to a [`NetServer`](crate::NetServer).
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    next_corr: u64,
    read_buf: Vec<u8>,
    /// Responses that arrived while waiting for a different correlation id.
    stash: BTreeMap<u64, Response>,
    /// Frame payload cap, mirroring the server's default.
    max_frame_bytes: usize,
}

impl NetClient {
    /// Connect to a serving front-end.
    ///
    /// # Errors
    /// [`MatroxError::Io`] if the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, MatroxError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            next_corr: 1,
            read_buf: Vec::new(),
            stash: BTreeMap::new(),
            max_frame_bytes: 16 << 20,
        })
    }

    /// Frame and send one request without waiting; returns the correlation
    /// id to [`recv`](NetClient::recv) on.  Requests sent back-to-back are
    /// pipelined on the connection and may be answered out of order.
    ///
    /// # Errors
    /// [`MatroxError::InvalidInput`] if the encoded request exceeds the
    /// frame payload cap (nothing is written, the connection stays usable);
    /// [`MatroxError::Io`] if the socket write fails.
    pub fn send(&mut self, req: &Request) -> Result<u64, MatroxError> {
        let payload = req.encode();
        if payload.len() > self.max_frame_bytes {
            return Err(MatroxError::InvalidInput(format!(
                "request of {} bytes exceeds the {}-byte frame limit",
                payload.len(),
                self.max_frame_bytes
            )));
        }
        let corr = self.next_corr;
        self.next_corr += 1;
        self.stream.write_all(&encode_frame(corr, &payload))?;
        Ok(corr)
    }

    /// Block until the response for `corr` arrives.  Responses for other
    /// correlation ids are stashed for their own `recv`.
    ///
    /// # Errors
    /// [`MatroxError::Io`] if the connection drops first;
    /// [`MatroxError::Format`] if the server sends undecodable bytes.
    pub fn recv(&mut self, corr: u64) -> Result<Response, MatroxError> {
        loop {
            if let Some(resp) = self.stash.remove(&corr) {
                return Ok(resp);
            }
            if self.drain_frames()? {
                continue;
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(MatroxError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection before replying",
                    )))
                }
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(MatroxError::Io(e)),
            }
        }
    }

    /// Non-blocking poll: decode anything already on the socket and return
    /// the oldest stashed response, if any.  `Ok(None)` means nothing has
    /// arrived yet.
    ///
    /// # Errors
    /// Socket or decode failures, as in [`recv`](NetClient::recv).
    pub fn try_recv(&mut self) -> Result<Option<(u64, Response)>, MatroxError> {
        // Temporarily non-blocking: pull every byte the kernel already has,
        // then restore, so a partial frame never wedges a blocking read.
        self.stream.set_nonblocking(true)?;
        let mut chunk = [0u8; 16 * 1024];
        let pull = loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    break Err(MatroxError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(MatroxError::Io(e)),
            }
        };
        self.stream.set_nonblocking(false)?;
        pull?;
        self.drain_frames()?;
        Ok(self.stash.pop_first())
    }

    /// Decode every complete frame in the buffer into the stash; `true` if
    /// at least one frame was decoded.
    fn drain_frames(&mut self) -> Result<bool, MatroxError> {
        let mut any = false;
        while let Some((corr, payload)) = take_frame(&mut self.read_buf, self.max_frame_bytes)? {
            self.stash.insert(corr, Response::decode(&payload)?);
            any = true;
        }
        Ok(any)
    }

    /// Send one request and block for its response.
    ///
    /// # Errors
    /// See [`send`](NetClient::send) / [`recv`](NetClient::recv).
    pub fn call(&mut self, req: &Request) -> Result<Response, MatroxError> {
        let corr = self.send(req)?;
        self.recv(corr)
    }

    /// Round-trip a matvec query; mirrors
    /// [`ServeHandle::query_wait`](crate::ServeHandle::query_wait).
    ///
    /// # Errors
    /// Transport failures, plus the query's own [`MatroxError`] (including
    /// [`MatroxError::Overloaded`] when the server shed it).
    pub fn query(
        &mut self,
        model: &str,
        tenant: &str,
        rhs: Vec<f64>,
    ) -> Result<QueryReply, MatroxError> {
        self.call(&Request::Query {
            model: model.to_string(),
            tenant: tenant.to_string(),
            rhs,
        })?
        .into_query_result()
    }

    /// Round-trip a solve query.
    ///
    /// # Errors
    /// As [`query`](NetClient::query).
    pub fn solve(
        &mut self,
        model: &str,
        tenant: &str,
        rhs: Vec<f64>,
    ) -> Result<QueryReply, MatroxError> {
        self.call(&Request::Solve {
            model: model.to_string(),
            tenant: tenant.to_string(),
            rhs,
        })?
        .into_query_result()
    }

    /// Register a model file by server-side path.
    ///
    /// # Errors
    /// Transport failures plus the server's reader errors.
    pub fn load_model(&mut self, id: &str, path: &str) -> Result<(), MatroxError> {
        self.call(&Request::LoadModel {
            id: id.to_string(),
            path: path.to_string(),
        })?
        .into_ack_result()
    }

    /// Snapshot the server's statistics.
    ///
    /// # Errors
    /// Transport failures.
    pub fn stats(&mut self) -> Result<ServerStats, MatroxError> {
        self.call(&Request::Stats)?.into_stats_result()
    }

    /// Flush the server's coalescing queues.
    ///
    /// # Errors
    /// Transport failures.
    pub fn flush(&mut self) -> Result<(), MatroxError> {
        self.call(&Request::Flush)?.into_ack_result()
    }
}
