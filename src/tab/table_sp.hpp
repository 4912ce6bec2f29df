// The float and half tables are the Table<float> / Table<_Float16>
// instantiations in tab/table.hpp; this header keeps the old include path.
#pragma once

#include "tab/table.hpp"
