#include "image/draw.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace vs::img {

void put_pixel(image_u8& img, int x, int y, color c) {
  if (!img.in_bounds(x, y)) return;
  if (img.channels() == 1) {
    img.at(x, y) = c.r;
  } else {
    img.at(x, y, 0) = c.r;
    img.at(x, y, 1) = c.g;
    img.at(x, y, 2) = c.b;
  }
}

void draw_line(image_u8& img, int x0, int y0, int x1, int y1, color c) {
  const int dx = std::abs(x1 - x0);
  const int dy = -std::abs(y1 - y0);
  const int sx = x0 < x1 ? 1 : -1;
  const int sy = y0 < y1 ? 1 : -1;
  int err = dx + dy;
  for (;;) {
    put_pixel(img, x0, y0, c);
    if (x0 == x1 && y0 == y1) break;
    const int e2 = 2 * err;
    if (e2 >= dy) {
      err += dy;
      x0 += sx;
    }
    if (e2 <= dx) {
      err += dx;
      y0 += sy;
    }
  }
}

void fill_rect(image_u8& img, int x0, int y0, int w, int h, color c) {
  const int xa = std::max(0, x0);
  const int ya = std::max(0, y0);
  const int xb = std::min(img.width(), x0 + w);
  const int yb = std::min(img.height(), y0 + h);
  for (int y = ya; y < yb; ++y) {
    for (int x = xa; x < xb; ++x) put_pixel(img, x, y, c);
  }
}

void draw_rect(image_u8& img, int x0, int y0, int w, int h, color c) {
  if (w <= 0 || h <= 0) return;
  draw_line(img, x0, y0, x0 + w - 1, y0, c);
  draw_line(img, x0, y0 + h - 1, x0 + w - 1, y0 + h - 1, c);
  draw_line(img, x0, y0, x0, y0 + h - 1, c);
  draw_line(img, x0 + w - 1, y0, x0 + w - 1, y0 + h - 1, c);
}

void fill_circle(image_u8& img, int cx, int cy, int radius, color c) {
  const int r2 = radius * radius;
  for (int dy = -radius; dy <= radius; ++dy) {
    for (int dx = -radius; dx <= radius; ++dx) {
      if (dx * dx + dy * dy <= r2) put_pixel(img, cx + dx, cy + dy, c);
    }
  }
}

}  // namespace vs::img
