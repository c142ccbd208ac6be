// Command-line front door to te::serve (DESIGN.md section 15).
//
// Two modes sharing one binary:
//
//   serve_cli --serve --socket /tmp/te.sock [--shards N] [--wal-dir D]
//             [--max-seconds S]
//     Runs a Server with a background pump thread and the AF_UNIX line-
//     protocol front-end until S seconds elapse (0 = until killed).
//
//   serve_cli --socket /tmp/te.sock '{"op":"submit",...}'
//     Client: sends one protocol line, prints the response line, exits 0
//     on {"ok":true} and 1 otherwise. This is what the CI smoke and the
//     README quick-start use; any line-based tool (netcat included) speaks
//     the same protocol.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "te/serve/server.hpp"
#include "te/serve/socket.hpp"
#include "te/util/cli.hpp"
#include "te/util/json.hpp"

namespace {

int run_server(const te::CliArgs& args, const std::string& socket_path) {
  te::serve::ServeOptions opt;
  opt.shards = static_cast<int>(args.get_or("shards", 2L));
  opt.backend = te::batch::Backend::kCpuSequential;
  opt.scheduler.chunk_tensors =
      static_cast<int>(args.get_or("chunk-tensors", 8L));
  opt.wal_dir = args.get_or("wal-dir", std::string());
  opt.tenant_queue_capacity =
      static_cast<int>(args.get_or("tenant-capacity", 64L));
  opt.drr_quantum = static_cast<int>(args.get_or("quantum", 4L));

  te::serve::Server<float> server(opt);
  server.start();  // background DRR pump
  te::serve::SocketFrontEnd front(server, socket_path);
  std::printf("serve_cli: listening on %s (%d shards%s)\n",
              socket_path.c_str(), opt.shards,
              opt.wal_dir.empty() ? ""
                                  : (", wal " + opt.wal_dir).c_str());
  std::fflush(stdout);

  const double max_seconds = args.get_or("max-seconds", 0.0);
  const auto begin = std::chrono::steady_clock::now();
  while (max_seconds <= 0 ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
                 .count() < max_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  front.stop();
  server.stop();
  const auto stats = server.stats();
  std::printf("serve_cli: served %lld requests (%lld steps)\n",
              static_cast<long long>(stats.submitted),
              static_cast<long long>(stats.steps));
  return 0;
}

int run_client(const std::string& socket_path, const std::string& line) {
  try {
    const std::string response =
        te::serve::request_over_socket(socket_path, line);
    std::printf("%s\n", response.c_str());
    const auto doc = te::json::parse(response);
    const te::json::Value* ok = doc ? doc->find("ok") : nullptr;
    return ok != nullptr && ok->boolean ? 0 : 1;  // set only by `true`
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_cli: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const te::CliArgs args(argc, argv);
  const auto socket_path = args.get("socket");
  if (!socket_path) {
    std::fprintf(stderr,
                 "usage: serve_cli --serve --socket PATH [--shards N] "
                 "[--wal-dir D] [--max-seconds S]\n"
                 "       serve_cli --socket PATH 'JSON_LINE'\n");
    return 2;
  }
  if (args.has("serve")) return run_server(args, *socket_path);
  if (args.positional().empty()) {
    std::fprintf(stderr, "serve_cli: client mode needs a protocol line\n");
    return 2;
  }
  return run_client(*socket_path, args.positional().front());
}
