let class_name = "JpegCodec"

let unrestricted_classes = [ "IntNode"; "IntVector"; "JpegCodec" ]

let restricted_classes = [ "JpegCodec" ]

(* Constant declarations shared by both variants. PW/PH pad to whole 8x8
   blocks; MAXRLE is the worst case of the entropy stream (a (run,value)
   pair per coefficient plus a block terminator, three channels). *)
let constants ~width ~height =
  Printf.sprintf
    {|  private static final int WIDTH = %d;
  private static final int HEIGHT = %d;
  private static final int QUALITY = 2;
  private static final int PW = (WIDTH + 7) / 8 * 8;
  private static final int PH = (HEIGHT + 7) / 8 * 8;
  private static final int BX = PW / 8;
  private static final int BY = PH / 8;
  private static final int NBLOCKS = BX * BY;
  private static final int MAXRLE = NBLOCKS * 3 * 130;
  private static final int EOB = 0 - 999999;
|}
    width height

(* Zigzag order and quantization matrix, built in both variants'
   constructors. *)
let zig_quant_init =
  {|    int idx = 0;
    for (int d = 0; d < 15; d++) {
      for (int k = 0; k < 8; k++) {
        int zi;
        int zj;
        if (d % 2 == 0) { zi = d - k; zj = k; }
        else { zi = k; zj = d - k; }
        if (zi >= 0 && zi < 8 && zj >= 0 && zj < 8) {
          zig[idx] = zi * 8 + zj;
          idx = idx + 1;
        }
      }
    }
    for (int u = 0; u < 8; u++) {
      for (int v = 0; v < 8; v++) {
        quant[u * 8 + v] = 1 + (1 + u + v) * QUALITY;
      }
    }
|}

(* The restricted variant trades initialization time for reaction time:
   the orthonormal DCT basis is tabulated once during construction. The
   unrestricted variant instead evaluates [basis] per use inside the
   transform loops — the classic dynamic style the paper's original
   design exhibited. Both compute the same doubles, so reconstructed
   images match bit for bit. *)
let cos_table_init =
  {|    for (int j = 0; j < 8; j++) {
      for (int u = 0; u < 8; u++) {
        double c = 1.0;
        if (u == 0) c = 1.0 / Math.sqrt(2.0);
        cosTab[j * 8 + u] = c * 0.5 * Math.cos((2.0 * j + 1.0) * u * Math.PI / 16.0);
      }
    }
|}

(* ------------------------------------------------------------------ *)
(* Restricted (hand-refined, policy-compliant) variant                 *)
(* ------------------------------------------------------------------ *)

let restricted_source ~width ~height () =
  Printf.sprintf
    {|class JpegCodec extends ASR {
%s
  private int[] ybuf;
  private int[] cbbuf;
  private int[] crbuf;
  private int[] outPix;
  private int[] rleBuf;
  private double[] blockIn;
  private double[] blockTmp;
  private int[] qblock;
  private int[] deq;
  private double[] cosTab;
  private int[] zig;
  private int[] quant;

  JpegCodec() {
    declarePorts(1, 2);
    ybuf = new int[PW * PH];
    cbbuf = new int[PW * PH];
    crbuf = new int[PW * PH];
    outPix = new int[WIDTH * HEIGHT];
    rleBuf = new int[MAXRLE];
    blockIn = new double[64];
    blockTmp = new double[64];
    qblock = new int[64];
    deq = new int[64];
    cosTab = new double[64];
    zig = new int[64];
    quant = new int[64];
%s%s  }

  private int clamp255(int v) {
    if (v < 0) return 0;
    if (v > 255) return 255;
    return v;
  }

  private void fdct() {
    for (int i = 0; i < 8; i++) {
      for (int u = 0; u < 8; u++) {
        double s = 0.0;
        for (int j = 0; j < 8; j++) {
          s = s + blockIn[i * 8 + j] * cosTab[j * 8 + u];
        }
        blockTmp[i * 8 + u] = s;
      }
    }
    for (int v = 0; v < 8; v++) {
      for (int u = 0; u < 8; u++) {
        double s = 0.0;
        for (int i = 0; i < 8; i++) {
          s = s + blockTmp[i * 8 + u] * cosTab[i * 8 + v];
        }
        qblock[v * 8 + u] = Math.round(s / (double)quant[v * 8 + u]);
      }
    }
  }

  private void idct() {
    for (int v = 0; v < 8; v++) {
      for (int u = 0; u < 8; u++) {
        blockIn[v * 8 + u] = (double)(deq[v * 8 + u] * quant[v * 8 + u]);
      }
    }
    for (int i = 0; i < 8; i++) {
      for (int v = 0; v < 8; v++) {
        double s = 0.0;
        for (int u = 0; u < 8; u++) {
          s = s + blockIn[v * 8 + u] * cosTab[i * 8 + u];
        }
        blockTmp[v * 8 + i] = s;
      }
    }
    for (int j = 0; j < 8; j++) {
      for (int i = 0; i < 8; i++) {
        double s = 0.0;
        for (int v = 0; v < 8; v++) {
          s = s + blockTmp[v * 8 + i] * cosTab[j * 8 + v];
        }
        qblock[j * 8 + i] = Math.round(s);
      }
    }
  }

  private int encodeChannel(int[] chan, int outPos) {
    for (int by = 0; by < BY; by++) {
      for (int bx = 0; bx < BX; bx++) {
        for (int i = 0; i < 8; i++) {
          for (int j = 0; j < 8; j++) {
            blockIn[i * 8 + j] = (double)(chan[(by * 8 + i) * PW + bx * 8 + j] - 128);
          }
        }
        fdct();
        int run = 0;
        for (int k = 0; k < 64; k++) {
          int v = qblock[zig[k]];
          if (v == 0) run = run + 1;
          else {
            rleBuf[outPos] = run;
            rleBuf[outPos + 1] = v;
            outPos = outPos + 2;
            run = 0;
          }
        }
        rleBuf[outPos] = EOB;
        outPos = outPos + 1;
      }
    }
    return outPos;
  }

  private int decodeChannel(int[] chan, int inPos) {
    for (int by = 0; by < BY; by++) {
      for (int bx = 0; bx < BX; bx++) {
        for (int z = 0; z < 64; z++) deq[z] = 0;
        int k = 0;
        for (int t = 0; t < 65; t++) {
          int v = rleBuf[inPos];
          if (v == EOB) {
            inPos = inPos + 1;
            break;
          }
          k = k + v;
          deq[zig[k]] = rleBuf[inPos + 1];
          k = k + 1;
          inPos = inPos + 2;
        }
        idct();
        for (int i = 0; i < 8; i++) {
          for (int j = 0; j < 8; j++) {
            chan[(by * 8 + i) * PW + bx * 8 + j] = clamp255(qblock[i * 8 + j] + 128);
          }
        }
      }
    }
    return inPos;
  }

  public void run() {
    int[] pix = readPortArray(0);
    for (int yy = 0; yy < PH; yy++) {
      for (int xx = 0; xx < PW; xx++) {
        int sx = xx;
        int sy = yy;
        if (sx >= WIDTH) sx = WIDTH - 1;
        if (sy >= HEIGHT) sy = HEIGHT - 1;
        int p = pix[sy * WIDTH + sx];
        int r = p >> 16 & 255;
        int g = p >> 8 & 255;
        int b = p & 255;
        ybuf[yy * PW + xx] = clamp255((299 * r + 587 * g + 114 * b) / 1000);
        cbbuf[yy * PW + xx] = clamp255(128 + (0 - 169 * r - 331 * g + 500 * b) / 1000);
        crbuf[yy * PW + xx] = clamp255(128 + (500 * r - 419 * g - 81 * b) / 1000);
      }
    }
    int rlen = 0;
    rlen = encodeChannel(ybuf, rlen);
    rlen = encodeChannel(cbbuf, rlen);
    rlen = encodeChannel(crbuf, rlen);
    int pos = 0;
    pos = decodeChannel(ybuf, pos);
    pos = decodeChannel(cbbuf, pos);
    pos = decodeChannel(crbuf, pos);
    for (int yy = 0; yy < HEIGHT; yy++) {
      for (int xx = 0; xx < WIDTH; xx++) {
        int y = ybuf[yy * PW + xx];
        int cb = cbbuf[yy * PW + xx] - 128;
        int cr = crbuf[yy * PW + xx] - 128;
        int r = clamp255(y + 1402 * cr / 1000);
        int g = clamp255(y - 344 * cb / 1000 - 714 * cr / 1000);
        int b = clamp255(y + 1772 * cb / 1000);
        outPix[yy * WIDTH + xx] = (r << 16) + (g << 8) + b;
      }
    }
    writePortArray(0, outPix);
    writePort(1, rlen);
  }
}
|}
    (constants ~width ~height)
    zig_quant_init cos_table_init

(* ------------------------------------------------------------------ *)
(* Unrestricted (design-phase) variant                                 *)
(* ------------------------------------------------------------------ *)

let unrestricted_source ~width ~height () =
  Printf.sprintf
    {|class IntNode {
  public int value;
  public IntNode next;
  IntNode(int v) {
    value = v;
    next = null;
  }
}

class IntVector {
  public IntNode head;
  public IntNode tail;
  public int count;
  IntVector() {
    head = null;
    tail = null;
    count = 0;
  }
  public void add(int v) {
    IntNode n = new IntNode(v);
    if (tail == null) { head = n; tail = n; }
    else { tail.next = n; tail = n; }
    count = count + 1;
  }
  public int[] toArray() {
    int[] a = new int[count];
    IntNode cur = head;
    int i = 0;
    while (cur != null) {
      a[i] = cur.value;
      i = i + 1;
      cur = cur.next;
    }
    return a;
  }
}

class JpegCodec extends ASR {
%s
  public int[] ybuf;
  public int[] cbbuf;
  public int[] crbuf;
  public int[] zig;
  public int[] quant;
  public int[] qblock;
  public int[] deq;

  JpegCodec() {
    declarePorts(1, 2);
    ybuf = new int[PW * PH];
    cbbuf = new int[PW * PH];
    crbuf = new int[PW * PH];
    zig = new int[64];
    quant = new int[64];
    qblock = new int[64];
    deq = new int[64];
%s  }

  public int clamp255(int v) {
    if (v < 0) return 0;
    if (v > 255) return 255;
    return v;
  }

  public double basis(int i, int u) {
    double c = 1.0;
    if (u == 0) c = 1.0 / Math.sqrt(2.0);
    return c * 0.5 * Math.cos((2.0 * i + 1.0) * u * Math.PI / 16.0);
  }

  public void fdct() {
    double[] tmpIn = new double[64];
    double[] tmp = new double[64];
    int i = 0;
    while (i < 64) {
      tmpIn[i] = (double)qblock[i];
      i = i + 1;
    }
    for (int r = 0; r < 8; r++) {
      for (int u = 0; u < 8; u++) {
        double s = 0.0;
        for (int j = 0; j < 8; j++) {
          s = s + tmpIn[r * 8 + j] * basis(j, u);
        }
        tmp[r * 8 + u] = s;
      }
    }
    for (int v = 0; v < 8; v++) {
      for (int u = 0; u < 8; u++) {
        double s = 0.0;
        for (int r = 0; r < 8; r++) {
          s = s + tmp[r * 8 + u] * basis(r, v);
        }
        qblock[v * 8 + u] = Math.round(s / (double)quant[v * 8 + u]);
      }
    }
  }

  public void idct() {
    double[] freq = new double[64];
    double[] tmp = new double[64];
    int w = 0;
    while (w < 64) {
      freq[w] = (double)(deq[w] * quant[w]);
      w = w + 1;
    }
    for (int i = 0; i < 8; i++) {
      for (int v = 0; v < 8; v++) {
        double s = 0.0;
        for (int u = 0; u < 8; u++) {
          s = s + freq[v * 8 + u] * basis(i, u);
        }
        tmp[v * 8 + i] = s;
      }
    }
    for (int j = 0; j < 8; j++) {
      for (int i = 0; i < 8; i++) {
        double s = 0.0;
        for (int v = 0; v < 8; v++) {
          s = s + tmp[v * 8 + i] * basis(j, v);
        }
        qblock[j * 8 + i] = Math.round(s);
      }
    }
  }

  public void encodeChannel(int[] chan, IntVector out) {
    for (int by = 0; by < BY; by++) {
      for (int bx = 0; bx < BX; bx++) {
        for (int i = 0; i < 8; i++) {
          for (int j = 0; j < 8; j++) {
            qblock[i * 8 + j] = chan[(by * 8 + i) * PW + bx * 8 + j] - 128;
          }
        }
        fdct();
        int run = 0;
        for (int k = 0; k < 64; k++) {
          int v = qblock[zig[k]];
          if (v == 0) run = run + 1;
          else {
            out.add(run);
            out.add(v);
            run = 0;
          }
        }
        out.add(EOB);
      }
    }
  }

  public int decodeChannel(int[] chan, int[] rle, int inPos) {
    for (int by = 0; by < BY; by++) {
      for (int bx = 0; bx < BX; bx++) {
        int z = 0;
        while (z < 64) {
          deq[z] = 0;
          z = z + 1;
        }
        int k = 0;
        for (int t = 0; t < 65; t++) {
          int v = rle[inPos];
          if (v == EOB) {
            inPos = inPos + 1;
            break;
          }
          k = k + v;
          deq[zig[k]] = rle[inPos + 1];
          k = k + 1;
          inPos = inPos + 2;
        }
        idct();
        for (int i = 0; i < 8; i++) {
          for (int j = 0; j < 8; j++) {
            chan[(by * 8 + i) * PW + bx * 8 + j] = clamp255(qblock[i * 8 + j] + 128);
          }
        }
      }
    }
    return inPos;
  }

  public void run() {
    int[] pix = readPortArray(0);
    int yy = 0;
    while (yy < PH) {
      int xx = 0;
      while (xx < PW) {
        int sx = xx;
        int sy = yy;
        if (sx >= WIDTH) sx = WIDTH - 1;
        if (sy >= HEIGHT) sy = HEIGHT - 1;
        int p = pix[sy * WIDTH + sx];
        int r = p >> 16 & 255;
        int g = p >> 8 & 255;
        int b = p & 255;
        ybuf[yy * PW + xx] = clamp255((299 * r + 587 * g + 114 * b) / 1000);
        cbbuf[yy * PW + xx] = clamp255(128 + (0 - 169 * r - 331 * g + 500 * b) / 1000);
        crbuf[yy * PW + xx] = clamp255(128 + (500 * r - 419 * g - 81 * b) / 1000);
        xx = xx + 1;
      }
      yy = yy + 1;
    }
    IntVector stream = new IntVector();
    encodeChannel(ybuf, stream);
    encodeChannel(cbbuf, stream);
    encodeChannel(crbuf, stream);
    int[] rle = stream.toArray();
    int pos = 0;
    pos = decodeChannel(ybuf, rle, pos);
    pos = decodeChannel(cbbuf, rle, pos);
    pos = decodeChannel(crbuf, rle, pos);
    int[] outPix = new int[WIDTH * HEIGHT];
    int oy = 0;
    while (oy < HEIGHT) {
      int ox = 0;
      while (ox < WIDTH) {
        int y = ybuf[oy * PW + ox];
        int cb = cbbuf[oy * PW + ox] - 128;
        int cr = crbuf[oy * PW + ox] - 128;
        int r = clamp255(y + 1402 * cr / 1000);
        int g = clamp255(y - 344 * cb / 1000 - 714 * cr / 1000);
        int b = clamp255(y + 1772 * cb / 1000);
        outPix[oy * WIDTH + ox] = (r << 16) + (g << 8) + b;
        ox = ox + 1;
      }
      oy = oy + 1;
    }
    writePortArray(0, outPix);
    writePort(1, rle.length);
  }
}
|}
    (constants ~width ~height)
    zig_quant_init
