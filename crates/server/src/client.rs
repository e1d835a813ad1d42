//! A minimal blocking client, used by the integration tests, the chaos
//! harness, and the throughput bench.

use crate::protocol::{
    parse_response, render_request, write_frame, Frame, FrameReader, Request, Response,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use tela_trace::json::{self, Value};

/// A blocking connection to a tela-server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Sets how long [`Client::request`] may wait for the reply frame
    /// (`None` blocks forever).
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends `request` and blocks for its terminal response.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.read_response()
    }

    /// Sends `request` without reading the reply — the chaos harness
    /// uses this to script stalls and mid-flight disconnects.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, &render_request(request))
    }

    /// Blocks for the next response frame.
    pub fn read_response(&mut self) -> io::Result<Response> {
        match self.reader.poll(&mut self.stream)? {
            Frame::Payload(payload) => parse_response(&payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Frame::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )),
            Frame::Pending => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "reply timeout elapsed",
            )),
        }
    }

    /// Requests the server's live metrics snapshot (`{"cmd": "stats"}`):
    /// counters, gauges, histogram quantiles, queue depth, cache hit
    /// rate, and per-tenant admission stats, as parsed JSON.
    pub fn stats(&mut self) -> io::Result<Value> {
        self.command("stats")
    }

    /// Requests the server's aggregate span rollup (`{"cmd": "trace"}`):
    /// span keys, counts, and totals from the shared trace.
    pub fn trace_rollup(&mut self) -> io::Result<Value> {
        self.command("trace")
    }

    fn command(&mut self, cmd: &str) -> io::Result<Value> {
        write_frame(&mut self.stream, &command_frame(cmd))?;
        match self.reader.poll(&mut self.stream)? {
            Frame::Payload(payload) => json::parse(&payload)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            Frame::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )),
            Frame::Pending => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "reply timeout elapsed",
            )),
        }
    }
}

/// The payload of an introspection command.
fn command_frame(cmd: &str) -> String {
    json::render(&Value::Object(vec![
        ("cmd".to_string(), Value::Str(cmd.to_string())),
        ("id".to_string(), Value::U64(1)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_frames_are_pinned() {
        assert_eq!(command_frame("stats"), r#"{"cmd":"stats","id":1}"#);
        assert_eq!(command_frame("trace"), r#"{"cmd":"trace","id":1}"#);
    }
}
