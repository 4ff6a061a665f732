#include "mem/huge_buffer.hpp"

namespace ps::mem {

HugePacketBuffer::HugePacketBuffer(u32 cells, int numa_node)
    : cell_count_(cells),
      numa_node_(numa_node),
      data_(std::make_unique_for_overwrite<u8[]>(std::size_t{cells} * kDataCellSize)),
      metadata_(cells),
      crcs_(cells) {}

}  // namespace ps::mem
