// The service_mix workload's file design: the one spec whose intake goes
// through `{"path": ...}` (file read + Verilog compile on every first-time
// request). A four-entry byte FIFO whose popped bytes feed a CRC-16/CCITT
// register, plus an occupancy-driven status FSM, so the design has both
// continuous-assign (RTL) nodes and behavioral nodes with data-dependent
// branches.
module fifo_crc(
    input wire clk,
    input wire rst,
    input wire wr,
    input wire rd,
    input wire [7:0] din,
    output reg [7:0] dout,
    output wire full,
    output wire empty,
    output reg [15:0] crc,
    output reg [1:0] level
);
    reg [7:0] m0, m1, m2, m3;
    reg [1:0] wptr, rptr;
    reg [2:0] count;

    assign full = count == 3'd4;
    assign empty = count == 3'd0;

    wire do_wr = wr & ~full;
    wire do_rd = rd & ~empty;

    reg [7:0] head;
    always @(*) begin
        case (rptr)
            2'd0: head = m0;
            2'd1: head = m1;
            2'd2: head = m2;
            default: head = m3;
        endcase
    end

    // One byte of CRC-16/CCITT (poly 0x1021), bit-serial unrolled.
    reg [15:0] c;
    integer i;
    always @(*) begin
        c = crc ^ {head, 8'h00};
        for (i = 0; i < 8; i = i + 1) begin
            if (c[15]) c = {c[14:0], 1'b0} ^ 16'h1021;
            else c = {c[14:0], 1'b0};
        end
    end

    always @(posedge clk) begin
        if (rst) begin
            m0 <= 8'h00;
            m1 <= 8'h00;
            m2 <= 8'h00;
            m3 <= 8'h00;
            wptr <= 2'd0;
            rptr <= 2'd0;
            count <= 3'd0;
            dout <= 8'h00;
            crc <= 16'hffff;
            level <= 2'd0;
        end
        else begin
            if (do_wr) begin
                case (wptr)
                    2'd0: m0 <= din;
                    2'd1: m1 <= din;
                    2'd2: m2 <= din;
                    default: m3 <= din;
                endcase
                wptr <= wptr + 2'd1;
            end
            if (do_rd) begin
                dout <= head;
                crc <= c;
                rptr <= rptr + 2'd1;
            end
            if (do_wr & ~do_rd) count <= count + 3'd1;
            else if (do_rd & ~do_wr) count <= count - 3'd1;
            if (count == 3'd0) level <= 2'd0;
            else if (count < 3'd3) level <= 2'd1;
            else if (count == 3'd3) level <= 2'd2;
            else level <= 2'd3;
        end
    end
endmodule
