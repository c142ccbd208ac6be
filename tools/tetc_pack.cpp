// tetc_pack: inspect / pack / unpack TETC-v1 containers.
//
//   $ ./tetc_pack pack   --input batch.tesymb --output batch.tetc [--f64]
//   $ ./tetc_pack unpack --input batch.tetc   --output batch.tesymb [--f64]
//   $ ./tetc_pack tables --order 4 --dim 3 --output tables.tetc [--f64]
//                        [--append]
//   $ ./tetc_pack info   --input file.tetc
//
// `pack` converts a legacy TESYMB01 flat batch into a checksummed container
// section; `unpack` converts back (interoperability with the existing CLI
// fixtures). `tables` builds the precomputed-tier KernelTables for a shape
// and packs them -- the file the TableCache spill tier and bench_kernels
// --tables consume for disk warm starts; --append adds the section to an
// existing container so one file can carry several shapes. `info` decodes
// section metadata (shape, counts, dtype) beyond tetc_check's framing
// validation.

#include <fstream>
#include <iostream>

#include "te/io/batch_codec.hpp"
#include "te/io/container.hpp"
#include "te/tensor/io_binary.hpp"
#include "te/util/cli.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: tetc_pack <command> [options]\n"
         "  pack   --input batch.tesymb --output batch.tetc [--f64]\n"
         "  unpack --input batch.tetc --output batch.tesymb [--f64]\n"
         "  tables --order M --dim N --output tables.tetc [--f64] [--append]\n"
         "  info   --input file.tetc\n";
  return 2;
}

template <te::Real T>
int pack_batch(const std::string& input, const std::string& output) {
  std::ifstream in(input, std::ios::binary);
  TE_REQUIRE(in.good(), "cannot open " << input);
  const auto tensors = te::read_tensor_batch_binary<T>(in);
  te::io::save_tensors<T>(
      output, std::span<const te::SymmetricTensor<T>>(tensors));
  std::cout << "packed " << tensors.size() << " tensors (order "
            << tensors.front().order() << ", dim " << tensors.front().dim()
            << ") -> " << output << '\n';
  return 0;
}

template <te::Real T>
int unpack_batch(const std::string& input, const std::string& output) {
  const auto tensors = te::io::load_tensors<T>(input);
  std::ofstream out(output, std::ios::binary);
  TE_REQUIRE(out.good(), "cannot write " << output);
  te::write_tensor_batch_binary<T>(
      out, std::span<const te::SymmetricTensor<T>>(tensors));
  std::cout << "unpacked " << tensors.size() << " tensors -> " << output
            << '\n';
  return 0;
}

template <te::Real T>
int pack_tables(int order, int dim, const std::string& output, bool append) {
  const te::kernels::KernelTables<T> tab(order, dim);
  te::io::Writer w(output, append ? te::io::OpenMode::kAppend
                                  : te::io::OpenMode::kTruncate);
  te::io::add_kernel_tables_section(w, tab);
  w.flush();
  std::cout << "packed tables for (order " << order << ", dim " << dim
            << "): " << tab.num_classes() << " classes, "
            << tab.contributions().size() << " contributions, "
            << tab.table_bytes() << " table bytes -> " << output << '\n';
  return 0;
}

/// Decoded per-section metadata: the details tetc_check's framing pass
/// doesn't look inside for.
int info(const std::string& input) {
  te::io::StreamReader reader(input);
  int n = 0;
  while (auto s = reader.next()) {
    ++n;
    std::cout << "section " << n << " @" << s->info.header_offset << ": "
              << te::io::section_type_name(s->info.type) << " v"
              << s->info.version << ", " << s->info.payload_bytes
              << " bytes";
    const auto type = static_cast<te::io::SectionType>(s->info.type);
    if (type == te::io::SectionType::kTensorBatch ||
        type == te::io::SectionType::kKernelTables ||
        type == te::io::SectionType::kDataset) {
      // These three share a u32 dtype | i32 order | i32 dim preamble.
      te::io::PayloadCursor c(s->payload, input, s->info.payload_offset);
      const std::uint32_t dtype = c.u32();
      const std::int32_t order = c.i32();
      const std::int32_t dim = c.i32();
      const std::uint64_t count = c.u64();
      std::cout << " [" << te::io::dtype_name(dtype) << ", order " << order
                << ", dim " << dim << ", count " << count << ']';
    }
    std::cout << '\n';
  }
  std::cout << input << ": " << n << " section" << (n == 1 ? "" : "s")
            << ", " << reader.file_bytes() << " file bytes\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  te::CliArgs args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string cmd = args.positional().front();
  const bool f64 = args.has("f64");

  try {
    if (cmd == "pack" || cmd == "unpack") {
      const auto input = args.get("input");
      const auto output = args.get("output");
      if (!input || !output) return usage();
      if (cmd == "pack") {
        return f64 ? pack_batch<double>(*input, *output)
                   : pack_batch<float>(*input, *output);
      }
      return f64 ? unpack_batch<double>(*input, *output)
                 : unpack_batch<float>(*input, *output);
    }
    if (cmd == "tables") {
      const auto output = args.get("output");
      const int order = static_cast<int>(args.get_or("order", 0L));
      const int dim = static_cast<int>(args.get_or("dim", 0L));
      if (!output || order < 1 || dim < 1) return usage();
      const bool append = args.has("append");
      return f64 ? pack_tables<double>(order, dim, *output, append)
                 : pack_tables<float>(order, dim, *output, append);
    }
    if (cmd == "info") {
      const auto input = args.get("input");
      if (!input) return usage();
      return info(*input);
    }
  } catch (const te::InvalidArgument& e) {
    std::cerr << "tetc_pack: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
