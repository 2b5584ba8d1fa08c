// Rasterization primitives used by the synthetic-scene generator and by the
// example programs (keypoint / match visualization).
#pragma once

#include "image/image.h"

namespace vs::img {

/// RGB color triple (gray images use .r).
struct color {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;
};

/// Sets one pixel if in bounds (no-op outside).
void put_pixel(image_u8& img, int x, int y, color c);

/// Bresenham line segment.
void draw_line(image_u8& img, int x0, int y0, int x1, int y1, color c);

/// Axis-aligned filled rectangle, clipped to the image.
void fill_rect(image_u8& img, int x0, int y0, int w, int h, color c);

/// Axis-aligned 1-px rectangle outline.
void draw_rect(image_u8& img, int x0, int y0, int w, int h, color c);

/// Filled circle (midpoint), clipped.
void fill_circle(image_u8& img, int cx, int cy, int radius, color c);

}  // namespace vs::img
