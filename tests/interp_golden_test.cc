// Golden exactness table for the Micro-C interpreter. Every case records
// (state, return value, cycles, instructions, response length and FNV-1a
// hash, trap message, and the external request of a yield). The rows
// were recorded from the per-instruction interpreter; cycle counts are
// the simulator's service times, so a change to dispatch or cycle
// accounting must reproduce every row exactly. Cases: the random source
// programs of fuzz_test under all three cost models, the standard
// bundle's lambdas (KV clients through yield/resume), the NIC-resident KV
// store, and traps that stop in the middle of straight-line code.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compiler/pipeline.h"
#include "microc/builder.h"
#include "microc/frontend.h"
#include "microc/interp.h"
#include "random_program.h"
#include "workloads/image.h"
#include "workloads/lambdas.h"

namespace lnic::microc {
namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;

const std::map<std::string, std::string> kGolden = {
    {"seed1/npu", "done ret=27 cycles=626 instrs=148 resp=8:af456814397876fe"},
    {"seed1/host_native", "done ret=27 cycles=188 instrs=148 resp=8:af456814397876fe"},
    {"seed1/host_python", "done ret=27 cycles=75200 instrs=148 resp=8:af456814397876fe"},
    {"seed2/npu", "done ret=44 cycles=624 instrs=139 resp=8:455a3334f5ee1e29"},
    {"seed2/host_native", "done ret=44 cycles=186 instrs=139 resp=8:455a3334f5ee1e29"},
    {"seed2/host_python", "done ret=44 cycles=74400 instrs=139 resp=8:455a3334f5ee1e29"},
    {"seed3/npu", "done ret=7 cycles=861 instrs=69 resp=8:4bd7a317074c5b62"},
    {"seed3/host_native", "done ret=7 cycles=131 instrs=69 resp=8:4bd7a317074c5b62"},
    {"seed3/host_python", "done ret=7 cycles=52400 instrs=69 resp=8:4bd7a317074c5b62"},
    {"seed4/npu", "done ret=3427 cycles=212 instrs=48 resp=8:ac4be662b8b47d25"},
    {"seed4/host_native", "done ret=3427 cycles=66 instrs=48 resp=8:ac4be662b8b47d25"},
    {"seed4/host_python", "done ret=3427 cycles=26400 instrs=48 resp=8:ac4be662b8b47d25"},
    {"seed5/npu", "done ret=246 cycles=319 instrs=148 resp=8:b73b405796be9c33"},
    {"seed5/host_native", "done ret=246 cycles=173 instrs=148 resp=8:b73b405796be9c33"},
    {"seed5/host_python", "done ret=246 cycles=69200 instrs=148 resp=8:b73b405796be9c33"},
    {"seed6/npu", "done ret=56 cycles=598 instrs=113 resp=8:b0f1bfe9d09fe8bd"},
    {"seed6/host_native", "done ret=56 cycles=160 instrs=113 resp=8:b0f1bfe9d09fe8bd"},
    {"seed6/host_python", "done ret=56 cycles=64000 instrs=113 resp=8:b0f1bfe9d09fe8bd"},
    {"seed7/npu", "done ret=4389 cycles=488 instrs=146 resp=8:490368130295838b"},
    {"seed7/host_native", "done ret=4389 cycles=196 instrs=146 resp=8:490368130295838b"},
    {"seed7/host_python", "done ret=4389 cycles=78400 instrs=146 resp=8:490368130295838b"},
    {"seed8/npu", "done ret=23 cycles=494 instrs=166 resp=8:3b8413a7b640fd72"},
    {"seed8/host_native", "done ret=23 cycles=202 instrs=166 resp=8:3b8413a7b640fd72"},
    {"seed8/host_python", "done ret=23 cycles=80800 instrs=166 resp=8:3b8413a7b640fd72"},
    {"seed9/npu", "done ret=54 cycles=119 instrs=105 resp=8:7b25f98f63470373"},
    {"seed9/host_native", "done ret=54 cycles=119 instrs=105 resp=8:7b25f98f63470373"},
    {"seed9/host_python", "done ret=54 cycles=47600 instrs=105 resp=8:7b25f98f63470373"},
    {"seed10/npu", "done ret=70 cycles=695 instrs=53 resp=8:29842c62ce0e2dc3"},
    {"seed10/host_native", "done ret=70 cycles=111 instrs=53 resp=8:29842c62ce0e2dc3"},
    {"seed10/host_python", "done ret=70 cycles=44400 instrs=53 resp=8:29842c62ce0e2dc3"},
    {"seed11/npu", "done ret=188008 cycles=477 instrs=156 resp=8:fe6adfe829269641"},
    {"seed11/host_native", "done ret=188008 cycles=185 instrs=156 resp=8:fe6adfe829269641"},
    {"seed11/host_python", "done ret=188008 cycles=74000 instrs=156 resp=8:fe6adfe829269641"},
    {"seed12/npu", "done ret=67 cycles=125 instrs=118 resp=8:8674817deedc0c26"},
    {"seed12/host_native", "done ret=67 cycles=125 instrs=118 resp=8:8674817deedc0c26"},
    {"seed12/host_python", "done ret=67 cycles=50000 instrs=118 resp=8:8674817deedc0c26"},
    {"seed13/npu", "done ret=4068 cycles=340 instrs=148 resp=8:797f9991b25dcf94"},
    {"seed13/host_native", "done ret=4068 cycles=194 instrs=148 resp=8:797f9991b25dcf94"},
    {"seed13/host_python", "done ret=4068 cycles=77600 instrs=148 resp=8:797f9991b25dcf94"},
    {"seed14/npu", "done ret=7634 cycles=247 instrs=83 resp=8:0d4ef796f8a353b8"},
    {"seed14/host_native", "done ret=7634 cycles=101 instrs=83 resp=8:0d4ef796f8a353b8"},
    {"seed14/host_python", "done ret=7634 cycles=40400 instrs=83 resp=8:0d4ef796f8a353b8"},
    {"seed15/npu", "done ret=0 cycles=849 instrs=57 resp=8:a8c7f832281a39c5"},
    {"seed15/host_native", "done ret=0 cycles=119 instrs=57 resp=8:a8c7f832281a39c5"},
    {"seed15/host_python", "done ret=0 cycles=47600 instrs=57 resp=8:a8c7f832281a39c5"},
    {"seed16/npu", "done ret=253 cycles=635 instrs=143 resp=8:52212384cd6b0ed8"},
    {"seed16/host_native", "done ret=253 cycles=197 instrs=143 resp=8:52212384cd6b0ed8"},
    {"seed16/host_python", "done ret=253 cycles=78800 instrs=143 resp=8:52212384cd6b0ed8"},
    {"seed17/npu", "done ret=238 cycles=144 instrs=123 resp=8:bf65080f3f444b2b"},
    {"seed17/host_native", "done ret=238 cycles=144 instrs=123 resp=8:bf65080f3f444b2b"},
    {"seed17/host_python", "done ret=238 cycles=57600 instrs=123 resp=8:bf65080f3f444b2b"},
    {"seed18/npu", "done ret=337 cycles=498 instrs=170 resp=8:fd7ddf86d9c5eccf"},
    {"seed18/host_native", "done ret=337 cycles=206 instrs=170 resp=8:fd7ddf86d9c5eccf"},
    {"seed18/host_python", "done ret=337 cycles=82400 instrs=170 resp=8:fd7ddf86d9c5eccf"},
    {"seed19/npu", "done ret=104 cycles=790 instrs=148 resp=8:7ff7119bdd7dceed"},
    {"seed19/host_native", "done ret=104 cycles=206 instrs=148 resp=8:7ff7119bdd7dceed"},
    {"seed19/host_python", "done ret=104 cycles=82400 instrs=148 resp=8:7ff7119bdd7dceed"},
    {"seed20/npu", "done ret=1 cycles=867 instrs=75 resp=8:89cd31291d2aefa4"},
    {"seed20/host_native", "done ret=1 cycles=137 instrs=75 resp=8:89cd31291d2aefa4"},
    {"seed20/host_python", "done ret=1 cycles=54800 instrs=75 resp=8:89cd31291d2aefa4"},
    {"seed21/npu", "done ret=1583 cycles=897 instrs=255 resp=8:c466150015e67728"},
    {"seed21/host_native", "done ret=1583 cycles=313 instrs=255 resp=8:c466150015e67728"},
    {"seed21/host_python", "done ret=1583 cycles=125200 instrs=255 resp=8:c466150015e67728"},
    {"seed22/npu", "done ret=34812 cycles=493 instrs=165 resp=8:8d30a0ef4044be54"},
    {"seed22/host_native", "done ret=34812 cycles=201 instrs=165 resp=8:8d30a0ef4044be54"},
    {"seed22/host_python", "done ret=34812 cycles=80400 instrs=165 resp=8:8d30a0ef4044be54"},
    {"seed23/npu", "done ret=18446744073709551609 cycles=551 instrs=66 resp=8:bfa4a0b237700dfb"},
    {"seed23/host_native", "done ret=18446744073709551609 cycles=113 instrs=66 resp=8:bfa4a0b237700dfb"},
    {"seed23/host_python", "done ret=18446744073709551609 cycles=45200 instrs=66 resp=8:bfa4a0b237700dfb"},
    {"seed24/npu", "done ret=349 cycles=925 instrs=126 resp=8:7968fbab05831553"},
    {"seed24/host_native", "done ret=349 cycles=195 instrs=126 resp=8:7968fbab05831553"},
    {"seed24/host_python", "done ret=349 cycles=78000 instrs=126 resp=8:7968fbab05831553"},
    {"seed25/npu", "done ret=199 cycles=249 instrs=85 resp=8:87ece9df3ac3f422"},
    {"seed25/host_native", "done ret=199 cycles=103 instrs=85 resp=8:87ece9df3ac3f422"},
    {"seed25/host_python", "done ret=199 cycles=41200 instrs=85 resp=8:87ece9df3ac3f422"},
    {"seed26/npu", "done ret=2688 cycles=370 instrs=49 resp=8:70f2a9506d790db7"},
    {"seed26/host_native", "done ret=2688 cycles=78 instrs=49 resp=8:70f2a9506d790db7"},
    {"seed26/host_python", "done ret=2688 cycles=31200 instrs=49 resp=8:70f2a9506d790db7"},
    {"seed27/npu", "done ret=218 cycles=229 instrs=58 resp=8:0a5575e577df59df"},
    {"seed27/host_native", "done ret=218 cycles=83 instrs=58 resp=8:0a5575e577df59df"},
    {"seed27/host_python", "done ret=218 cycles=33200 instrs=58 resp=8:0a5575e577df59df"},
    {"seed28/npu", "done ret=0 cycles=431 instrs=103 resp=8:a8c7f832281a39c5"},
    {"seed28/host_native", "done ret=0 cycles=139 instrs=103 resp=8:a8c7f832281a39c5"},
    {"seed28/host_python", "done ret=0 cycles=55600 instrs=103 resp=8:a8c7f832281a39c5"},
    {"seed29/npu", "done ret=49 cycles=342 instrs=171 resp=8:9a20c0986e364d94"},
    {"seed29/host_native", "done ret=49 cycles=196 instrs=171 resp=8:9a20c0986e364d94"},
    {"seed29/host_python", "done ret=49 cycles=78400 instrs=171 resp=8:9a20c0986e364d94"},
    {"seed30/npu", "done ret=102505 cycles=683 instrs=205 resp=8:3bf82c93c7a6e635"},
    {"seed30/host_native", "done ret=102505 cycles=245 instrs=205 resp=8:3bf82c93c7a6e635"},
    {"seed30/host_python", "done ret=102505 cycles=98000 instrs=205 resp=8:3bf82c93c7a6e635"},
    {"seed31/npu", "done ret=52 cycles=718 instrs=83 resp=8:3d306b7d4d686f31"},
    {"seed31/host_native", "done ret=52 cycles=134 instrs=83 resp=8:3d306b7d4d686f31"},
    {"seed31/host_python", "done ret=52 cycles=53600 instrs=83 resp=8:3d306b7d4d686f31"},
    {"seed32/npu", "done ret=524 cycles=343 instrs=151 resp=8:9a0e1d41b02fbc93"},
    {"seed32/host_native", "done ret=524 cycles=197 instrs=151 resp=8:9a0e1d41b02fbc93"},
    {"seed32/host_python", "done ret=524 cycles=78800 instrs=151 resp=8:9a0e1d41b02fbc93"},
    {"opt/npu/web1", "done ret=0 cycles=7212 instrs=2000 resp=1032:3bcf51d015b2fc18"},
    {"opt/npu/web7", "done ret=0 cycles=7212 instrs=2000 resp=1032:b0d200afe3d6d8cf"},
    {"opt/npu/kv_get", "yield ret=0 cycles=1628 instrs=1553 resp=0:cbf29ce484222325 ext=0:11259375:0"},
    {"opt/npu/kv_get.resume", "done ret=0 cycles=2459 instrs=2365 resp=16:bf790986768cb8e6"},
    {"opt/npu/kv_set", "yield ret=0 cycles=1630 instrs=1555 resp=0:cbf29ce484222325 ext=1:42:99"},
    {"opt/npu/kv_set.resume", "done ret=0 cycles=2461 instrs=2367 resp=16:eacff9626adc05ac"},
    {"opt/npu/image", "done ret=0 cycles=116206 instrs=1547 resp=1024:fc8dd729571ba7a4"},
    {"opt/host_native/web1", "done ret=0 cycles=2548 instrs=2000 resp=1032:3bcf51d015b2fc18"},
    {"opt/host_native/web7", "done ret=0 cycles=2548 instrs=2000 resp=1032:b0d200afe3d6d8cf"},
    {"opt/host_native/kv_get", "yield ret=0 cycles=1968 instrs=1553 resp=0:cbf29ce484222325 ext=0:11259375:0"},
    {"opt/host_native/kv_get.resume", "done ret=0 cycles=2799 instrs=2365 resp=16:bf790986768cb8e6"},
    {"opt/host_native/kv_set", "yield ret=0 cycles=1970 instrs=1555 resp=0:cbf29ce484222325 ext=1:42:99"},
    {"opt/host_native/kv_set.resume", "done ret=0 cycles=2801 instrs=2367 resp=16:eacff9626adc05ac"},
    {"opt/host_native/image", "done ret=0 cycles=10814 instrs=1547 resp=1024:fc8dd729571ba7a4"},
    {"opt/host_python/web1", "done ret=0 cycles=855400 instrs=2000 resp=1032:3bcf51d015b2fc18"},
    {"opt/host_python/web7", "done ret=0 cycles=855400 instrs=2000 resp=1032:b0d200afe3d6d8cf"},
    {"opt/host_python/kv_get", "yield ret=0 cycles=787200 instrs=1553 resp=0:cbf29ce484222325 ext=0:11259375:0"},
    {"opt/host_python/kv_get.resume", "done ret=0 cycles=1119600 instrs=2365 resp=16:bf790986768cb8e6"},
    {"opt/host_python/kv_set", "yield ret=0 cycles=788000 instrs=1555 resp=0:cbf29ce484222325 ext=1:42:99"},
    {"opt/host_python/kv_set.resume", "done ret=0 cycles=1120400 instrs=2367 resp=16:eacff9626adc05ac"},
    {"opt/host_python/image", "done ret=0 cycles=1417520 instrs=1547 resp=1024:fc8dd729571ba7a4"},
    {"naive/npu/web1", "done ret=0 cycles=28252 instrs=2034 resp=1032:3bcf51d015b2fc18"},
    {"naive/npu/web7", "done ret=0 cycles=28252 instrs=2034 resp=1032:b0d200afe3d6d8cf"},
    {"naive/npu/kv_get", "yield ret=0 cycles=3167 instrs=1587 resp=0:cbf29ce484222325 ext=0:11259375:0"},
    {"naive/npu/kv_get.resume", "done ret=0 cycles=4912 instrs=2410 resp=16:bf790986768cb8e6"},
    {"naive/npu/kv_set", "yield ret=0 cycles=3782 instrs=1600 resp=0:cbf29ce484222325 ext=1:42:99"},
    {"naive/npu/kv_set.resume", "done ret=0 cycles=5527 instrs=2423 resp=16:eacff9626adc05ac"},
    {"naive/npu/image", "done ret=0 cycles=190925 instrs=1614 resp=1024:fc8dd729571ba7a4"},
    {"naive/host_native/web1", "done ret=0 cycles=3044 instrs=2034 resp=1032:3bcf51d015b2fc18"},
    {"naive/host_native/web7", "done ret=0 cycles=3044 instrs=2034 resp=1032:b0d200afe3d6d8cf"},
    {"naive/host_native/kv_get", "yield ret=0 cycles=2047 instrs=1587 resp=0:cbf29ce484222325 ext=0:11259375:0"},
    {"naive/host_native/kv_get.resume", "done ret=0 cycles=2916 instrs=2410 resp=16:bf790986768cb8e6"},
    {"naive/host_native/kv_set", "yield ret=0 cycles=2078 instrs=1600 resp=0:cbf29ce484222325 ext=1:42:99"},
    {"naive/host_native/kv_set.resume", "done ret=0 cycles=2947 instrs=2423 resp=16:eacff9626adc05ac"},
    {"naive/host_native/image", "done ret=0 cycles=12349 instrs=1614 resp=1024:fc8dd729571ba7a4"},
    {"naive/host_python/web1", "done ret=0 cycles=919610 instrs=2034 resp=1032:3bcf51d015b2fc18"},
    {"naive/host_python/web7", "done ret=0 cycles=919610 instrs=2034 resp=1032:b0d200afe3d6d8cf"},
    {"naive/host_python/kv_get", "yield ret=0 cycles=815020 instrs=1587 resp=0:cbf29ce484222325 ext=0:11259375:0"},
    {"naive/host_python/kv_get.resume", "done ret=0 cycles=1158840 instrs=2410 resp=16:bf790986768cb8e6"},
    {"naive/host_python/kv_set", "yield ret=0 cycles=825530 instrs=1600 resp=0:cbf29ce484222325 ext=1:42:99"},
    {"naive/host_python/kv_set.resume", "done ret=0 cycles=1169350 instrs=2423 resp=16:eacff9626adc05ac"},
    {"naive/host_python/image", "done ret=0 cycles=1591780 instrs=1614 resp=1024:fc8dd729571ba7a4"},
    {"kv0", "done ret=0 cycles=84 instrs=34 resp=8:a8c7f832281a39c5"},
    {"kv1", "done ret=0 cycles=176 instrs=36 resp=8:d19adc106a20b93d"},
    {"kv2", "done ret=0 cycles=147 instrs=37 resp=8:d19adc106a20b93d"},
    {"kv3", "done ret=0 cycles=147 instrs=37 resp=8:1fac0f8d96f6f86c"},
    {"kv4", "done ret=0 cycles=147 instrs=37 resp=8:1fac0f8d96f6f86c"},
    {"kv5", "done ret=0 cycles=176 instrs=36 resp=8:0de21504f16dc720"},
    {"kv6", "done ret=0 cycles=147 instrs=37 resp=8:0de21504f16dc720"},
    {"kv7", "done ret=0 cycles=84 instrs=34 resp=8:a8c7f832281a39c5"},
    {"kv8", "trap ret=0 cycles=59 instrs=21 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"kv9", "done ret=0 cycles=84 instrs=34 resp=8:a8c7f832281a39c5"},
    {"kv10", "trap ret=0 cycles=124 instrs=26 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"kv11", "done ret=0 cycles=84 instrs=34 resp=8:a8c7f832281a39c5"},
    {"kv12", "done ret=0 cycles=176 instrs=36 resp=8:4bd7a317074c5b62"},
    {"kv13", "done ret=0 cycles=147 instrs=37 resp=8:4bd7a317074c5b62"},
    {"div0/npu", "trap ret=0 cycles=3 instrs=4 resp=0:cbf29ce484222325 trap=division by zero"},
    {"div0/host_native", "trap ret=0 cycles=3 instrs=4 resp=0:cbf29ce484222325 trap=division by zero"},
    {"div0/host_python", "trap ret=0 cycles=1200 instrs=4 resp=0:cbf29ce484222325 trap=division by zero"},
    {"rem0/npu", "trap ret=0 cycles=3 instrs=4 resp=0:cbf29ce484222325 trap=remainder by zero"},
    {"rem0/host_native", "trap ret=0 cycles=3 instrs=4 resp=0:cbf29ce484222325 trap=remainder by zero"},
    {"rem0/host_python", "trap ret=0 cycles=1200 instrs=4 resp=0:cbf29ce484222325 trap=remainder by zero"},
    {"oob_load/npu", "trap ret=0 cycles=155 instrs=6 resp=0:cbf29ce484222325 trap=out-of-bounds load from object 'small' at offset 8"},
    {"oob_load/host_native", "trap ret=0 cycles=9 instrs=6 resp=0:cbf29ce484222325 trap=out-of-bounds load from object 'small' at offset 8"},
    {"oob_load/host_python", "trap ret=0 cycles=3600 instrs=6 resp=0:cbf29ce484222325 trap=out-of-bounds load from object 'small' at offset 8"},
    {"oob_store/npu", "trap ret=0 cycles=154 instrs=5 resp=0:cbf29ce484222325 trap=out-of-bounds store to object 'small' at offset 6"},
    {"oob_store/host_native", "trap ret=0 cycles=8 instrs=5 resp=0:cbf29ce484222325 trap=out-of-bounds store to object 'small' at offset 6"},
    {"oob_store/host_python", "trap ret=0 cycles=3200 instrs=5 resp=0:cbf29ce484222325 trap=out-of-bounds store to object 'small' at offset 6"},
    {"body_end/npu", "trap ret=0 cycles=10 instrs=4 resp=0:cbf29ce484222325 trap=request body read past end"},
    {"body_end/host_native", "trap ret=0 cycles=10 instrs=4 resp=0:cbf29ce484222325 trap=request body read past end"},
    {"body_end/host_python", "trap ret=0 cycles=4000 instrs=4 resp=0:cbf29ce484222325 trap=request body read past end"},
    {"match_range/npu", "trap ret=0 cycles=1 instrs=2 resp=0:cbf29ce484222325 trap=match_data out of range"},
    {"match_range/host_native", "trap ret=0 cycles=1 instrs=2 resp=0:cbf29ce484222325 trap=match_data out of range"},
    {"match_range/host_python", "trap ret=0 cycles=400 instrs=2 resp=0:cbf29ce484222325 trap=match_data out of range"},
    {"memcpy/npu", "trap ret=0 cycles=156 instrs=5 resp=0:cbf29ce484222325 trap=memcpy out of bounds in object 'b'"},
    {"memcpy/host_native", "trap ret=0 cycles=7 instrs=5 resp=0:cbf29ce484222325 trap=memcpy out of bounds in object 'b'"},
    {"memcpy/host_python", "trap ret=0 cycles=1855 instrs=5 resp=0:cbf29ce484222325 trap=memcpy out of bounds in object 'b'"},
    {"resp_mem/npu", "trap ret=0 cycles=156 instrs=5 resp=0:cbf29ce484222325 trap=response copy out of bounds in object 'a'"},
    {"resp_mem/host_native", "trap ret=0 cycles=7 instrs=5 resp=0:cbf29ce484222325 trap=response copy out of bounds in object 'a'"},
    {"resp_mem/host_python", "trap ret=0 cycles=1855 instrs=5 resp=0:cbf29ce484222325 trap=response copy out of bounds in object 'a'"},
    {"hash/npu", "trap ret=0 cycles=156 instrs=5 resp=0:cbf29ce484222325 trap=hash out of bounds in object 'a'"},
    {"hash/host_native", "trap ret=0 cycles=7 instrs=5 resp=0:cbf29ce484222325 trap=hash out of bounds in object 'a'"},
    {"hash/host_python", "trap ret=0 cycles=1855 instrs=5 resp=0:cbf29ce484222325 trap=hash out of bounds in object 'a'"},
    {"gray/npu", "trap ret=0 cycles=156 instrs=5 resp=0:cbf29ce484222325 trap=grayscale out of bounds in object 'a'"},
    {"gray/host_native", "trap ret=0 cycles=7 instrs=5 resp=0:cbf29ce484222325 trap=grayscale out of bounds in object 'a'"},
    {"gray/host_python", "trap ret=0 cycles=1855 instrs=5 resp=0:cbf29ce484222325 trap=grayscale out of bounds in object 'a'"},
    {"body_copy/npu", "trap ret=0 cycles=156 instrs=5 resp=0:cbf29ce484222325 trap=body copy out of bounds in object 'a'"},
    {"body_copy/host_native", "trap ret=0 cycles=7 instrs=5 resp=0:cbf29ce484222325 trap=body copy out of bounds in object 'a'"},
    {"body_copy/host_python", "trap ret=0 cycles=1855 instrs=5 resp=0:cbf29ce484222325 trap=body copy out of bounds in object 'a'"},
    {"wrap_load/npu", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=out-of-bounds load from object 'b' at offset 18446744073709551612"},
    {"wrap_load/host_native", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=out-of-bounds load from object 'b' at offset 18446744073709551612"},
    {"wrap_load/host_python", "trap ret=0 cycles=1600 instrs=5 resp=0:cbf29ce484222325 trap=out-of-bounds load from object 'b' at offset 18446744073709551612"},
    {"wrap_store/npu", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=out-of-bounds store to object 'b' at offset 18446744073709551612"},
    {"wrap_store/host_native", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=out-of-bounds store to object 'b' at offset 18446744073709551612"},
    {"wrap_store/host_python", "trap ret=0 cycles=1600 instrs=5 resp=0:cbf29ce484222325 trap=out-of-bounds store to object 'b' at offset 18446744073709551612"},
    {"wrap_resp_mem/npu", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=response copy out of bounds in object 'a'"},
    {"wrap_resp_mem/host_native", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=response copy out of bounds in object 'a'"},
    {"wrap_resp_mem/host_python", "trap ret=0 cycles=1600 instrs=5 resp=0:cbf29ce484222325 trap=response copy out of bounds in object 'a'"},
    {"wrap_memcpy/npu", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=memcpy out of bounds in object 'a'"},
    {"wrap_memcpy/host_native", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=memcpy out of bounds in object 'a'"},
    {"wrap_memcpy/host_python", "trap ret=0 cycles=1600 instrs=5 resp=0:cbf29ce484222325 trap=memcpy out of bounds in object 'a'"},
    {"wrap_gray/npu", "trap ret=0 cycles=6 instrs=7 resp=0:cbf29ce484222325 trap=grayscale out of bounds in object 'b'"},
    {"wrap_gray/host_native", "trap ret=0 cycles=6 instrs=7 resp=0:cbf29ce484222325 trap=grayscale out of bounds in object 'b'"},
    {"wrap_gray/host_python", "trap ret=0 cycles=2400 instrs=7 resp=0:cbf29ce484222325 trap=grayscale out of bounds in object 'b'"},
    {"wrap_hash/npu", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=hash out of bounds in object 'a'"},
    {"wrap_hash/host_native", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=hash out of bounds in object 'a'"},
    {"wrap_hash/host_python", "trap ret=0 cycles=1600 instrs=5 resp=0:cbf29ce484222325 trap=hash out of bounds in object 'a'"},
    {"wrap_body_copy/npu", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=body copy out of bounds in object 'a'"},
    {"wrap_body_copy/host_native", "trap ret=0 cycles=4 instrs=5 resp=0:cbf29ce484222325 trap=body copy out of bounds in object 'a'"},
    {"wrap_body_copy/host_python", "trap ret=0 cycles=1600 instrs=5 resp=0:cbf29ce484222325 trap=body copy out of bounds in object 'a'"},
    {"call_depth/npu", "trap ret=0 cycles=107 instrs=48 resp=0:cbf29ce484222325 trap=call depth limit (recursion unsupported on NPUs)"},
    {"call_depth/host_native", "trap ret=0 cycles=107 instrs=48 resp=0:cbf29ce484222325 trap=call depth limit (recursion unsupported on NPUs)"},
    {"call_depth/host_python", "trap ret=0 cycles=42800 instrs=48 resp=0:cbf29ce484222325 trap=call depth limit (recursion unsupported on NPUs)"},
    {"callee_trap/npu", "trap ret=0 cycles=8 instrs=5 resp=0:cbf29ce484222325 trap=division by zero"},
    {"callee_trap/host_native", "trap ret=0 cycles=8 instrs=5 resp=0:cbf29ce484222325 trap=division by zero"},
    {"callee_trap/host_python", "trap ret=0 cycles=3200 instrs=5 resp=0:cbf29ce484222325 trap=division by zero"},
    {"ext_then_trap/npu", "yield ret=0 cycles=61 instrs=2 resp=0:cbf29ce484222325 ext=0:5:5"},
    {"ext_then_trap.resume/npu", "trap ret=0 cycles=61 instrs=3 resp=0:cbf29ce484222325 trap=division by zero"},
    {"ext_then_trap/host_native", "yield ret=0 cycles=401 instrs=2 resp=0:cbf29ce484222325 ext=0:5:5"},
    {"ext_then_trap.resume/host_native", "trap ret=0 cycles=401 instrs=3 resp=0:cbf29ce484222325 trap=division by zero"},
    {"ext_then_trap/host_python", "yield ret=0 cycles=160400 instrs=2 resp=0:cbf29ce484222325 ext=0:5:5"},
    {"ext_then_trap.resume/host_python", "trap ret=0 cycles=160400 instrs=3 resp=0:cbf29ce484222325 trap=division by zero"},
    {"fell_off/npu", "trap ret=0 cycles=2 instrs=2 resp=0:cbf29ce484222325 trap=fell off the end of a block in 'fall'"},
    {"fell_off/host_native", "trap ret=0 cycles=2 instrs=2 resp=0:cbf29ce484222325 trap=fell off the end of a block in 'fall'"},
    {"fell_off/host_python", "trap ret=0 cycles=800 instrs=2 resp=0:cbf29ce484222325 trap=fell off the end of a block in 'fall'"},
    {"fell_off_after_call/npu", "trap ret=0 cycles=8 instrs=4 resp=0:cbf29ce484222325 trap=fell off the end of a block in 'after_call'"},
    {"fell_off_after_call/host_native", "trap ret=0 cycles=8 instrs=4 resp=0:cbf29ce484222325 trap=fell off the end of a block in 'after_call'"},
    {"fell_off_after_call/host_python", "trap ret=0 cycles=3200 instrs=4 resp=0:cbf29ce484222325 trap=fell off the end of a block in 'after_call'"},
    {"fell_off_empty/npu", "trap ret=0 cycles=2 instrs=2 resp=0:cbf29ce484222325 trap=fell off the end of a block in 'empty_block'"},
    {"fell_off_empty/host_native", "trap ret=0 cycles=2 instrs=2 resp=0:cbf29ce484222325 trap=fell off the end of a block in 'empty_block'"},
    {"fell_off_empty/host_python", "trap ret=0 cycles=800 instrs=2 resp=0:cbf29ce484222325 trap=fell off the end of a block in 'empty_block'"},
    {"spin/npu", "trap ret=0 cycles=10001 instrs=10001 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"spin/host_native", "trap ret=0 cycles=10001 instrs=10001 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"spin/host_python", "trap ret=0 cycles=4000400 instrs=10001 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel0/npu", "trap ret=0 cycles=6 instrs=0 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel0/host_native", "trap ret=0 cycles=6 instrs=0 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel0/host_python", "trap ret=0 cycles=2400 instrs=0 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel1/npu", "trap ret=0 cycles=6 instrs=0 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel1/host_native", "trap ret=0 cycles=6 instrs=0 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel1/host_python", "trap ret=0 cycles=2400 instrs=0 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel2/npu", "trap ret=0 cycles=6 instrs=0 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel2/host_native", "trap ret=0 cycles=6 instrs=0 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel2/host_python", "trap ret=0 cycles=2400 instrs=0 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel7/npu", "trap ret=0 cycles=8 instrs=2 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel7/host_native", "trap ret=0 cycles=8 instrs=2 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel7/host_python", "trap ret=0 cycles=3200 instrs=2 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel50/npu", "trap ret=0 cycles=4147 instrs=39 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel50/host_native", "trap ret=0 cycles=435 instrs=39 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel50/host_python", "trap ret=0 cycles=53040 instrs=39 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel333/npu", "trap ret=0 cycles=4430 instrs=322 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel333/host_native", "trap ret=0 cycles=718 instrs=322 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel333/host_python", "trap ret=0 cycles=166240 instrs=322 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel1000/npu", "trap ret=0 cycles=5097 instrs=989 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel1000/host_native", "trap ret=0 cycles=1385 instrs=989 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel1000/host_python", "trap ret=0 cycles=433040 instrs=989 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"web_fuel2048/npu", "done ret=0 cycles=7212 instrs=2000 resp=1032:14a2a48e4d13b69d"},
    {"web_fuel2048/host_native", "done ret=0 cycles=2548 instrs=2000 resp=1032:14a2a48e4d13b69d"},
    {"web_fuel2048/host_python", "done ret=0 cycles=855400 instrs=2000 resp=1032:14a2a48e4d13b69d"},
    {"web_fuel4000/npu", "done ret=0 cycles=7212 instrs=2000 resp=1032:14a2a48e4d13b69d"},
    {"web_fuel4000/host_native", "done ret=0 cycles=2548 instrs=2000 resp=1032:14a2a48e4d13b69d"},
    {"web_fuel4000/host_python", "done ret=0 cycles=855400 instrs=2000 resp=1032:14a2a48e4d13b69d"},
    {"kv_fuel900/npu", "trap ret=0 cycles=901 instrs=891 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"kv_fuel900/host_native", "trap ret=0 cycles=901 instrs=891 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"kv_fuel900/host_python", "trap ret=0 cycles=360400 instrs=891 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"kv_fuel1800/npu", "yield ret=0 cycles=1628 instrs=1553 resp=0:cbf29ce484222325 ext=0:11:0"},
    {"kv_fuel1800.resume/npu", "trap ret=0 cycles=1801 instrs=1726 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"kv_fuel1800/host_native", "yield ret=0 cycles=1968 instrs=1553 resp=0:cbf29ce484222325 ext=0:11:0"},
    {"kv_fuel1800.resume/host_native", "trap ret=0 cycles=1968 instrs=1553 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"kv_fuel1800/host_python", "yield ret=0 cycles=787200 instrs=1553 resp=0:cbf29ce484222325 ext=0:11:0"},
    {"kv_fuel1800.resume/host_python", "trap ret=0 cycles=787200 instrs=1553 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"seed5_fuel10/npu", "trap ret=0 cycles=11 instrs=11 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"seed5_fuel10/host_native", "trap ret=0 cycles=11 instrs=11 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"seed5_fuel10/host_python", "trap ret=0 cycles=4400 instrs=11 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"seed5_fuel100/npu", "trap ret=0 cycles=222 instrs=65 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"seed5_fuel100/host_native", "trap ret=0 cycles=101 instrs=83 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"seed5_fuel100/host_python", "trap ret=0 cycles=40400 instrs=83 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"seed5_fuel250/npu", "trap ret=0 cycles=251 instrs=87 resp=0:cbf29ce484222325 trap=fuel exhausted (compute limit)"},
    {"seed5_fuel250/host_native", "done ret=246 cycles=173 instrs=148 resp=8:b73b405796be9c33"},
    {"seed5_fuel250/host_python", "done ret=246 cycles=69200 instrs=148 resp=8:b73b405796be9c33"},
};

std::string describe(const Outcome& out) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : out.response) {
    hash = (hash ^ byte) * 0x100000001b3ull;
  }
  static const char* const kStates[] = {"done", "yield", "trap"};
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s ret=%" PRIu64 " cycles=%" PRIu64 " instrs=%" PRIu64
                " resp=%zu:%016" PRIx64,
                kStates[static_cast<int>(out.state)], out.return_value,
                out.cycles, out.instructions, out.response.size(), hash);
  std::string line = buf;
  if (out.state == RunState::kYield) {
    std::snprintf(buf, sizeof(buf), " ext=%" PRId64 ":%" PRIu64 ":%" PRIu64,
                  out.ext.kind, out.ext.key, out.ext.value);
    line += buf;
  }
  if (out.state == RunState::kTrap) line += " trap=" + out.trap_message;
  return line;
}

void expect_golden(const Rows& rows) {
  for (const auto& [name, line] : rows) {
    const auto it = kGolden.find(name);
    if (it == kGolden.end()) {
      ADD_FAILURE() << "no golden row: {\"" << name << "\", \"" << line
                    << "\"},";
      continue;
    }
    EXPECT_EQ(line, it->second) << name;
  }
}

const std::pair<const char*, CostModel> kModels[] = {
    {"npu", CostModel::npu()},
    {"host_native", CostModel::host_native()},
    {"host_python", CostModel::host_python()},
};

Invocation make_invocation(WorkloadId wid, std::vector<std::uint8_t> body) {
  Invocation inv;
  auto word_at = [&body](std::size_t i) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < 8 && i * 8 + b < body.size(); ++b) {
      v |= static_cast<std::uint64_t>(body[i * 8 + b]) << (8 * b);
    }
    return v;
  };
  inv.headers.fields[kHdrWorkloadId] = wid;
  inv.headers.fields[kHdrBodyLen] = body.size();
  inv.headers.fields[kHdrOp] = word_at(0);
  inv.headers.fields[kHdrKey] = word_at(1);
  inv.headers.fields[kHdrValue] = word_at(2);
  inv.headers.fields[kHdrImageWidth] = word_at(0) & 0xFFFF;
  inv.headers.fields[kHdrImageHeight] = (word_at(0) >> 16) & 0xFFFF;
  inv.body = std::move(body);
  inv.match_data = {1};
  return inv;
}

Program compile_bundle(workloads::WorkloadBundle bundle,
                       const compiler::Options& options = {}) {
  auto out = compiler::compile(bundle.spec, std::move(bundle.lambdas), options);
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
  return std::move(out).value().program;
}

TEST(InterpGolden, RandomSourcePrograms) {
  Rows rows;
  for (int seed = 1; seed <= 32; ++seed) {
    auto program = compile_microc(test_programs::random_program_for_seed(seed));
    ASSERT_TRUE(program.ok()) << seed;
    const Program& p = program.value();
    for (const auto& [model, cost] : kModels) {
      ObjectStore store(p);
      Machine machine(p, cost, &store);
      machine.set_fuel(10'000'000);
      const Invocation inv;
      rows.emplace_back("seed" + std::to_string(seed) + "/" + model,
                        describe(machine.run_function(p.function_index("f"),
                                                      inv)));
    }
  }
  expect_golden(rows);
}

TEST(InterpGolden, StandardLambdas) {
  const Program optimized = compile_bundle(workloads::make_standard_workloads());
  const Program naive = compile_bundle(workloads::make_standard_workloads(),
                                       compiler::Options::none());
  const workloads::Image image = workloads::make_test_image(32, 32, 5);
  Rows rows;
  for (const auto& [variant, program] :
       {std::pair{"opt", &optimized}, std::pair{"naive", &naive}}) {
    for (const auto& [model, cost] : kModels) {
      ObjectStore store(*program);
      Machine machine(*program, cost, &store);
      const std::string prefix = std::string(variant) + "/" + model + "/";
      auto run = [&](const std::string& name, WorkloadId wid,
                     std::vector<std::uint8_t> body,
                     std::uint64_t reply) {
        const Invocation inv = make_invocation(wid, std::move(body));
        Outcome out = machine.run(inv);
        rows.emplace_back(prefix + name, describe(out));
        if (out.state == RunState::kYield) {
          out = machine.resume(reply);
          rows.emplace_back(prefix + name + ".resume", describe(out));
        }
      };
      run("web1", workloads::kWebServerId, workloads::encode_web_request(1), 0);
      run("web7", workloads::kWebServerId, workloads::encode_web_request(7), 0);
      run("kv_get", workloads::kKvGetId,
          workloads::encode_kv_request(0xABCDEF), 0x1234);
      run("kv_set", workloads::kKvSetId, workloads::encode_kv_request(42, 99),
          99);
      run("image", workloads::kImageId,
          workloads::encode_image_request(image.width, image.height,
                                          image.rgba),
          0);
    }
  }
  expect_golden(rows);
}

TEST(InterpGolden, NicKvStore) {
  const Program program = compile_bundle(workloads::make_nic_kv_store(8));
  ObjectStore store(program);
  Machine machine(program, CostModel::npu(), &store);
  struct Op {
    std::uint64_t op, key, value, fuel;
  };
  constexpr std::uint64_t kNoLimit = 1ull << 40;
  // SETs cut short by fuel show which global writes landed before the
  // trap: the GET after each reads the slot back.
  const Op ops[] = {
      {0, 42, 0, kNoLimit},   {1, 42, 777, kNoLimit}, {0, 42, 0, kNoLimit},
      {1, 42, 888, kNoLimit}, {0, 42, 0, kNoLimit},   {1, 300, 5, kNoLimit},
      {0, 300, 0, kNoLimit},  {0, 9, 0, kNoLimit},    {1, 77, 1234, 40},
      {0, 77, 0, kNoLimit},   {1, 78, 99, 120},       {0, 78, 0, kNoLimit},
      {1, 79, 7, 200},        {0, 79, 0, kNoLimit},
  };
  Rows rows;
  int i = 0;
  for (const Op& op : ops) {
    machine.set_fuel(op.fuel);
    const Invocation inv = make_invocation(
        workloads::kNicKvStoreId,
        workloads::encode_kv_store_request(op.op, op.key, op.value));
    rows.emplace_back("kv" + std::to_string(i++), describe(machine.run(inv)));
  }
  expect_golden(rows);
}

// Small programs whose traps fire mid-block, after work that must stay
// counted, under a native and an interpreted cost model.
TEST(InterpGolden, Traps) {
  Rows rows;
  auto record = [&rows](const std::string& name, const Program& p,
                        std::size_t fn, const Invocation& inv,
                        std::uint64_t fuel = 1ull << 40) {
    for (const auto& [model, cost] : kModels) {
      ObjectStore store(p);
      Machine machine(p, cost, &store);
      machine.set_fuel(fuel);
      Outcome out = machine.run_function(fn, inv);
      rows.emplace_back(name + "/" + model, describe(out));
      if (out.state == RunState::kYield) {
        out = machine.resume(0);
        rows.emplace_back(name + ".resume/" + model, describe(out));
      }
    }
  };
  const Invocation empty;

  {  // Division and remainder by zero between ALU work.
    for (const bool rem : {false, true}) {
      ProgramBuilder pb("t");
      auto fb = pb.function("div", 0);
      auto a = fb.const_u64(7);
      auto z = fb.const_u64(0);
      auto c = fb.add(a, a);
      auto q = rem ? fb.remu(c, z) : fb.divu(c, z);
      fb.ret(fb.add(q, a));
      const auto idx = fb.finish();
      record(rem ? "rem0" : "div0", pb.take(), idx, empty);
    }
  }
  {  // Out-of-bounds load and store, with stores landing before them.
    ProgramBuilder pb("t");
    const auto obj = pb.object("small", 8, MemScope::kLocal);
    const auto glob = pb.object("counter", 8, MemScope::kGlobal);
    auto fb = pb.function("oob_load", 0);
    auto zero = fb.const_u64(0);
    fb.store(glob, zero, fb.const_u64(5));
    auto off = fb.const_u64(8);
    auto x = fb.add(off, off);
    auto v = fb.load(obj, off);
    fb.ret(fb.add(v, x));
    const auto load_idx = fb.finish();
    auto fs = pb.function("oob_store", 0);
    auto one = fs.const_u64(1);
    fs.store(obj, fs.const_u64(0), one, 0, 4);
    fs.store(obj, fs.const_u64(6), one, 0, 4);
    fs.ret(one);
    const auto store_idx = fs.finish();
    const Program p = pb.take();
    record("oob_load", p, load_idx, empty);
    record("oob_store", p, store_idx, empty);
  }
  {  // Body read past its end, and a match-data index out of range.
    ProgramBuilder pb("t");
    auto fb = pb.function("body", 0);
    auto b0 = fb.load_body(fb.const_u64(0));
    auto b5 = fb.load_body(fb.const_u64(3), 2);
    fb.ret(fb.add(b0, b5));
    const auto body_idx = fb.finish();
    auto fm = pb.function("match", 0);
    auto m0 = fm.load_match(0);
    auto m5 = fm.load_match(5);
    fm.ret(fm.add(m0, m5));
    const auto match_idx = fm.finish();
    const Program p = pb.take();
    Invocation inv;
    inv.body = {1, 2, 3, 4};
    inv.match_data = {9};
    record("body_end", p, body_idx, inv);
    record("match_range", p, match_idx, inv);
  }
  {  // Bulk intrinsics out of bounds.
    ProgramBuilder pb("t");
    const auto a = pb.object("a", 16, MemScope::kGlobal);
    const auto b = pb.object("b", 16, MemScope::kLocal);
    const char* names[] = {"memcpy", "resp_mem", "hash", "gray", "body_copy"};
    std::vector<std::uint32_t> fns;
    for (int k = 0; k < 5; ++k) {
      auto fb = pb.function(names[k], 0);
      auto zero = fb.const_u64(0);
      auto len = fb.const_u64(12);
      auto big = fb.const_u64(17);
      fb.memcpy_(b, zero, a, zero, len);
      if (k == 0) fb.memcpy_(b, len, a, zero, len);
      if (k == 1) fb.resp_mem(a, len, len);
      if (k == 2) fb.hash(a, zero, big);
      if (k == 3) fb.grayscale(b, zero, a, zero, len);
      if (k == 4) fb.body_copy(a, zero, zero, big);
      fb.ret(len);
      fns.push_back(fb.finish());
    }
    const Program p = pb.take();
    Invocation inv;
    inv.body = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int k = 0; k < 5; ++k) record(names[k], p, fns[k], inv);
  }
  {  // Offsets whose sum with the length wraps past 2^64, one per check.
    ProgramBuilder pb("t");
    const auto a = pb.object("a", 16, MemScope::kGlobal);
    const auto b = pb.object("b", 8, MemScope::kLocal);
    const char* names[] = {"wrap_load", "wrap_store", "wrap_resp_mem",
                           "wrap_memcpy", "wrap_gray", "wrap_hash",
                           "wrap_body_copy"};
    std::vector<std::uint32_t> fns;
    for (int k = 0; k < 7; ++k) {
      auto fb = pb.function(names[k], 0);
      auto zero = fb.const_u64(0);
      auto four = fb.const_u64(4);
      auto eight = fb.const_u64(8);
      auto wrap = fb.const_u64(~std::uint64_t{3});  // 2^64 - 4
      if (k == 0) fb.load(b, wrap);
      if (k == 1) fb.store(b, wrap, eight);
      if (k == 2) fb.resp_mem(a, wrap, eight);
      if (k == 3) fb.memcpy_(a, wrap, b, zero, eight);
      if (k == 4) {
        // 2^62 + 1 pixels: four bytes each wraps to 4, and the destination
        // offset plus the pixel count wraps to 0.
        auto pixels = fb.const_u64((std::uint64_t{1} << 62) + 1);
        auto doff = fb.const_u64(~std::uint64_t{0} - (std::uint64_t{1} << 62));
        fb.grayscale(b, doff, a, zero, pixels);
      }
      if (k == 5) fb.hash(a, four, wrap);
      if (k == 6) fb.body_copy(a, eight, four, wrap);
      fb.ret(four);
      fns.push_back(fb.finish());
    }
    const Program p = pb.take();
    Invocation inv;
    inv.body = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int k = 0; k < 7; ++k) record(names[k], p, fns[k], inv);
  }
  {  // Call depth limit, and a trap inside a callee.
    ProgramBuilder pb("t");
    auto fr = pb.function("rec", 0);
    auto r = fr.add_imm(fr.const_u64(1), 2);
    fr.ret(fr.add(fr.call(0, {}), r));
    const auto rec_idx = fr.finish();
    auto fg = pb.function("g", 1);
    fg.ret(fg.divu(fg.arg(0), fg.const_u64(0)));
    const auto g_idx = fg.finish();
    auto ff = pb.function("f", 0);
    auto x = ff.const_u64(3);
    ff.ret(ff.add(ff.call(g_idx, {x}), x));
    const auto f_idx = ff.finish();
    const Program p = pb.take();
    record("call_depth", p, rec_idx, empty);
    record("callee_trap", p, f_idx, empty);
  }
  {  // A trap after an external call resumes.
    ProgramBuilder pb("t");
    auto fb = pb.function("kv", 0);
    auto key = fb.const_u64(5);
    auto reply = fb.ext_call(0, key, key);
    fb.ret(fb.divu(key, reply));
    const auto idx = fb.finish();
    record("ext_then_trap", pb.take(), idx, empty);
  }
  {  // Control reaching a block end without a terminator, including after
     // a call returns and through an empty block.
    Program p;
    Function g;
    g.name = "g";
    g.num_regs = 2;
    g.blocks.push_back(BasicBlock{{{.op = Opcode::kConst, .dst = 0, .imm = 4},
                                   {.op = Opcode::kRet, .a = 0}}});
    Function fall;
    fall.name = "fall";
    fall.num_regs = 4;
    fall.blocks.push_back(
        BasicBlock{{{.op = Opcode::kConst, .dst = 0, .imm = 5},
                    {.op = Opcode::kAddImm, .dst = 1, .a = 0, .imm = 3}}});
    Function after_call;
    after_call.name = "after_call";
    after_call.num_regs = 4;
    after_call.blocks.push_back(
        BasicBlock{{{.op = Opcode::kConst, .dst = 0, .imm = 5},
                    {.op = Opcode::kCall, .dst = 1, .imm = 0}}});
    Function empty_block;
    empty_block.name = "empty_block";
    empty_block.num_regs = 2;
    empty_block.blocks.push_back(
        BasicBlock{{{.op = Opcode::kConst, .dst = 0, .imm = 1},
                    {.op = Opcode::kBr, .imm = 1}}});
    empty_block.blocks.push_back(BasicBlock{});
    p.functions = {g, fall, after_call, empty_block};
    record("fell_off", p, 1, empty);
    record("fell_off_after_call", p, 2, empty);
    record("fell_off_empty", p, 3, empty);
  }
  {  // Fuel running out part-way through segments.
    ProgramBuilder pb("t");
    auto fb = pb.function("spin", 0);
    const auto loop = fb.block();
    fb.select_block(0);
    fb.br(loop);
    fb.select_block(loop);
    fb.br(loop);
    const auto idx = fb.finish();
    record("spin", pb.take(), idx, empty, 10'000);

    const Program web = compile_bundle(workloads::make_standard_workloads());
    const Invocation inv =
        make_invocation(workloads::kWebServerId,
                        workloads::encode_web_request(2));
    for (const std::uint64_t fuel :
         {0ull, 1ull, 2ull, 7ull, 50ull, 333ull, 1000ull, 2048ull, 4000ull}) {
      record("web_fuel" + std::to_string(fuel), web,
             web.dispatch_function, inv, fuel);
    }
    const Invocation kv = make_invocation(workloads::kKvGetId,
                                          workloads::encode_kv_request(11));
    for (const std::uint64_t fuel : {900ull, 1800ull}) {
      record("kv_fuel" + std::to_string(fuel), web, web.dispatch_function, kv,
             fuel);
    }
    auto random = compile_microc(test_programs::random_program_for_seed(5));
    ASSERT_TRUE(random.ok());
    for (const std::uint64_t fuel : {10ull, 100ull, 250ull}) {
      record("seed5_fuel" + std::to_string(fuel), random.value(),
             random.value().function_index("f"), empty, fuel);
    }
  }
  expect_golden(rows);
}

}  // namespace
}  // namespace lnic::microc
